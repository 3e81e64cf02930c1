let key_size = 16
let nonce_size = 16

let keystream_block ~key ~nonce counter =
  let msg = Bytes.create (Bytes.length nonce + 8) in
  Bytes.blit nonce 0 msg 0 (Bytes.length nonce);
  for i = 0 to 7 do
    Bytes.set msg
      (Bytes.length nonce + i)
      (Char.chr ((counter lsr (8 * (7 - i))) land 0xFF))
  done;
  Hmac.mac ~key msg

(* Allocation-free path. Keystream block [c] is
   [HMAC(key, nonce ‖ be64 c)]: with the key's pad states cached, that is
   one inner compression over the 24-byte message padded to
   (64 + 24) · 8 = 704 bits and one outer compression over the inner digest
   padded to (64 + 32) · 8 = 768 bits. Both blocks are built directly as
   message words, and the keystream is read from the chain words. [ks_h] is
   the chain state, [ks_w] the message schedule; single-threaded reuse,
   same as the scratch contexts in Sha256/Hmac. *)
(* octolint: allow no-shared-mutable — single-domain scratch; multicore:
   Domain.DLS pair, nothing escapes a call. *)
let ks_h = Array.make 8 0

(* octolint: allow no-shared-mutable — paired with [ks_h]; same
   Domain.DLS disposition. *)
let ks_w = Array.make 64 0

let be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let xor_in_place ~key ~nonce_src ~nonce_off buf ~off ~len =
  let k = Hmac.keyed_of key in
  let n0 = be32 nonce_src nonce_off
  and n1 = be32 nonce_src (nonce_off + 4)
  and n2 = be32 nonce_src (nonce_off + 8)
  and n3 = be32 nonce_src (nonce_off + 12) in
  let h = ks_h and w = ks_w in
  let counter = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    Sha256.load_state k.Hmac.inner h;
    w.(0) <- n0;
    w.(1) <- n1;
    w.(2) <- n2;
    w.(3) <- n3;
    w.(4) <- (!counter lsr 32) land 0xFFFFFFFF;
    w.(5) <- !counter land 0xFFFFFFFF;
    w.(6) <- 0x80000000;
    Array.fill w 7 8 0;
    w.(15) <- 704;
    Sha256.compress_words h w;
    Array.blit h 0 w 0 8;
    w.(8) <- 0x80000000;
    Array.fill w 9 6 0;
    w.(15) <- 768;
    Sha256.load_state k.Hmac.outer h;
    Sha256.compress_words h w;
    let chunk = min 32 (len - !pos) in
    let base = off + !pos in
    for i = 0 to chunk - 1 do
      let ks = (Array.unsafe_get h (i lsr 2) lsr (24 - ((i land 3) lsl 3))) land 0xFF in
      Bytes.unsafe_set buf (base + i)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf (base + i)) lxor ks))
    done;
    incr counter;
    pos := !pos + chunk
  done

let encrypt ~key ~nonce plaintext =
  let len = Bytes.length plaintext in
  if Bytes.length nonce = nonce_size then begin
    let out = Bytes.create len in
    Bytes.blit plaintext 0 out 0 len;
    xor_in_place ~key ~nonce_src:nonce ~nonce_off:0 out ~off:0 ~len;
    out
  end
  else begin
    (* Nonstandard nonce length: generic per-block path. *)
    let out = Bytes.create len in
    let block = ref (keystream_block ~key ~nonce 0) in
    let counter = ref 0 in
    for i = 0 to len - 1 do
      let off = i mod 32 in
      if off = 0 && i > 0 then begin
        incr counter;
        block := keystream_block ~key ~nonce !counter
      end;
      Bytes.set out i
        (Char.chr (Char.code (Bytes.get plaintext i) lxor Char.code (Bytes.get !block off)))
    done;
    out
  end

let decrypt = encrypt
