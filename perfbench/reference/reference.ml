(* The reference kernel: fixed, allocation-heavy work that uses no code
   of this repository. run.py times it in a process of its own before and
   after every repetition and rescales the repetition's times by it, so
   that a change of the host's speed during a run cancels out while a
   change of the program's speed does not.

     reference.exe   prints the kernel's wall time in seconds *)

module M = Map.Make (Int)

(* xorshift: a fixed key sequence, independent of Random *)
let next s =
  let x = !s in
  let x = x lxor (x lsl 13) land 0x3FFFFFFF in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0x3FFFFFFF in
  s := x;
  x

(* A persistent map and a hash table with a few MB live, as the
   simulations' routing state and registries have. *)
let round state =
  let m = ref M.empty in
  for i = 1 to 100_000 do
    m := M.add (next state) i !m
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 400_000 do
    Hashtbl.replace h (next state land 0xFFFFF) (Some i)
  done;
  M.cardinal !m + Hashtbl.length h

(* Two rounds: one round's time alone varies by about 6% between
   back-to-back runs. *)
let () =
  let t0 = Monotonic_clock.now () in
  let state = ref 0x2545F491 in
  let check = round state + round state in
  let t1 = Monotonic_clock.now () in
  Printf.printf "%.9f %d\n" (Int64.to_float (Int64.sub t1 t0) *. 1e-9) check
