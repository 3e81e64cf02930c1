(** HMAC-SHA256 (RFC 2104), the MAC underlying simulated signatures and
    keystream derivation. Tested against RFC 4231 vectors. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. Chain states for the key's inner/outer pad
    blocks are cached (bounded, keyed by key content), so repeated MACs
    under one key skip half the compressions. *)

val mac_string : key:bytes -> string -> bytes

type keyed = private { inner : Sha256.state; outer : Sha256.state }
(** SHA-256 chain states after absorbing the key's ipad and opad blocks. *)

val keyed_of : bytes -> keyed
(** The cached pad states of [key]. Callers that MAC many fixed-shape
    messages under one key ({!Cipher}'s keystream) look them up once and
    drive {!Sha256.compress_words} themselves: [mac ~key m] is the outer
    state compressed over the padded inner digest of [m]. *)

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-shape comparison of a recomputed tag. *)
