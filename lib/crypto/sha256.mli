(** SHA-256 (FIPS 180-4), implemented from scratch in pure OCaml.

    Used as the hash underlying signatures, onion keystreams, and content
    digests throughout the repository. Tested against the FIPS test
    vectors. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val reset : ctx -> unit
val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit

val finalize : ctx -> bytes
(** 32-byte digest. The context must be {!reset} before reuse. *)

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx out off] writes the 32-byte digest at [out.(off)]
    without allocating. *)

type state
(** Chain-state snapshot, valid only at a 64-byte block boundary. *)

val save : ctx -> state
val restore : ctx -> state -> unit
(** [restore ctx st] rewinds [ctx] to the snapshot; hashing a common prefix
    once and restoring per message skips its compressions (HMAC key pads). *)

val load_state : state -> int array -> unit
(** [load_state st h] copies the snapshot's 8 chain words into [h.(0..7)]. *)

val compress_words : int array -> int array -> unit
(** [compress_words h w] runs one compression of the chain words
    [h.(0..7)] (32-bit values in native ints) over the block whose
    big-endian message words are [w.(0..15)]; [w.(16..63)] are overwritten
    with the message schedule. The caller pads the block itself. For
    fixed-shape messages (the onion keystream's HMAC blocks) this skips
    byte buffers entirely; the digest is [h] read as big-endian words.
    @raise Invalid_argument if [h] has fewer than 8 or [w] fewer than 64
    elements. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val hex : bytes -> string
(** Lowercase hex rendering of a digest (any byte string). *)
