(* SHA-256 over 32-bit words stored in native ints, masked to 32 bits.
   OCaml's 63-bit native ints hold the intermediate sums without overflow;
   [land mask32] re-normalizes after every addition. *)

let mask32 = 0xFFFFFFFF

(* octolint: allow no-shared-mutable — SHA-256 round constants, written
   never; arrays are flagged because the type can't promise that, but this
   one is safe to share across domains read-only. *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let reset ctx =
  ctx.h.(0) <- 0x6a09e667;
  ctx.h.(1) <- 0xbb67ae85;
  ctx.h.(2) <- 0x3c6ef372;
  ctx.h.(3) <- 0xa54ff53a;
  ctx.h.(4) <- 0x510e527f;
  ctx.h.(5) <- 0x9b05688c;
  ctx.h.(6) <- 0x1f83d9ab;
  ctx.h.(7) <- 0x5be0cd19;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* [dbl x] is the 32-bit word [x] written twice, [x] in the low half and
   [x lsl 32] above it, so bits [n .. n + 31] of [dbl x] are [x] rotated
   right by [n]: one shift per rotation, and one mask per Σ/σ. The 63-bit
   int drops the top copy's bit 31, which only a rotation by 32 would read. *)
let[@inline always] dbl x = x lor (x lsl 32)

(* One compression of chain state [h] over the message schedule [w], whose
   first 16 words hold the block. *)
let compress_words h w =
  if Array.length h < 8 || Array.length w < 64 then invalid_arg "Sha256.compress_words";
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let d15 = dbl w15 and d2 = dbl w2 in
    let s0 = ((d15 lsr 7) lxor (d15 lsr 18) lxor (w15 lsr 3)) land mask32 in
    let s1 = ((d2 lsr 17) lxor (d2 lsr 19) lxor (w2 lsr 10)) land mask32 in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask32)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let de = dbl !e and da = dbl !a in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask32 in
    let ch = !g lxor (!e land (!f lxor !g)) in
    (* Sums of at most five words stay far below 2^62: mask only what is
       stored. *)
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask32 in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* [block]/[off] access is bounds-unchecked: every caller hands a block it
   just sized (off + 64 <= length), and this loop dominates the profile.
   The byte loads are spelled out rather than factored into a local
   closure, which ocamlopt would allocate on every iteration. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let base = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3)))
  done;
  compress_words ctx.h w

let update ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = Int.min need len in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* Padding (0x80, zeros, 64-bit big-endian bit length) happens inside
   [ctx.buf]: at most two compressions and no intermediate allocation. *)
let finalize_into ctx out off =
  let bit_len = ctx.total * 8 in
  let bl = ctx.buf_len in
  Bytes.set ctx.buf bl '\x80';
  if bl + 1 + 8 <= 64 then Bytes.fill ctx.buf (bl + 1) (56 - (bl + 1)) '\000'
  else begin
    Bytes.fill ctx.buf (bl + 1) (64 - (bl + 1)) '\000';
    compress ctx ctx.buf 0;
    Bytes.fill ctx.buf 0 56 '\000'
  end;
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress ctx ctx.buf 0;
  ctx.buf_len <- 0;
  let h = ctx.h in
  for i = 0 to 7 do
    let word = h.(i) in
    Bytes.set out (off + (4 * i)) (Char.unsafe_chr ((word lsr 24) land 0xFF));
    Bytes.set out (off + (4 * i) + 1) (Char.unsafe_chr ((word lsr 16) land 0xFF));
    Bytes.set out (off + (4 * i) + 2) (Char.unsafe_chr ((word lsr 8) land 0xFF));
    Bytes.set out (off + (4 * i) + 3) (Char.unsafe_chr (word land 0xFF))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  out

(* Chain-state snapshots, for callers that replay a common prefix (HMAC's
   per-key pad blocks). Only valid at block boundaries. *)
type state = { sh : int array; stotal : int }

let save ctx =
  assert (ctx.buf_len = 0);
  { sh = Array.copy ctx.h; stotal = ctx.total }

let restore ctx st =
  Array.blit st.sh 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- st.stotal

let load_state st h = Array.blit st.sh 0 h 0 8

(* One-shot digest through a module-level scratch context: no per-call ctx
   allocation. The simulator is single-threaded; [update]/[finalize_into]
   never call back into this module, so reuse is safe. *)
let oneshot = init ()

let digest_into data out off =
  reset oneshot;
  update oneshot data;
  finalize_into oneshot out off

let digest_bytes data =
  let out = Bytes.create 32 in
  digest_into data out 0;
  out

let digest_string s =
  let out = Bytes.create 32 in
  reset oneshot;
  update_string oneshot s;
  finalize_into oneshot out 0;
  out

let hex_digits = "0123456789abcdef"

let hex digest =
  let n = Bytes.length digest in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get digest i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string out
