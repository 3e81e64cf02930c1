module Id = Octo_chord.Id
module Rng = Octo_sim.Rng

type t = {
  n : int;
  f : float;
  space : Id.space;
  ids : int array; (* sorted *)
  mal : bool array;
  num_fingers : int;
  list_size : int;
  rng : Rng.t;
}

let n t = t.n
let f t = t.f
let space t = t.space
let rng t = t.rng
let id_of t rank = t.ids.(rank)
let malicious t rank = t.mal.(rank)

let create ?bits ?num_fingers ?(list_size = 6) ~n ~f ~seed () =
  let bits = Option.value ~default:40 bits in
  let space = Id.space ~bits in
  let rng = Rng.create ~seed in
  (* n distinct ids, as a loop that redraws every id already taken would
     pick them. Each round draws as many ids as are missing: the loop
     consumes all of those draws (it needs at least that many more), and
     keeps exactly the values that are new. So sort, drop adjacent
     duplicates, and go round again only if some draws collided. *)
  let ids = Array.make n 0 in
  let distinct = ref 0 in
  while !distinct < n do
    for i = !distinct to n - 1 do
      ids.(i) <- Id.random space rng
    done;
    (* Merge sort: faster here than [Array.sort]'s heap sort. *)
    Array.stable_sort Int.compare ids;
    distinct := 1;
    for i = 1 to n - 1 do
      if ids.(i) <> ids.(!distinct - 1) then begin
        ids.(!distinct) <- ids.(i);
        incr distinct
      end
    done
  done;
  let mal = Array.init n (fun _ -> Rng.coin rng f) in
  let num_fingers = Option.value ~default:bits num_fingers in
  { n; f; space; ids; mal; num_fingers; list_size; rng }

(* A model over a *given* membership instead of a sampled one: the
   adversary's calibrated snapshot of a live ring (churn-range attack).
   No ids are drawn, so the rng only serves the random_* helpers. *)
let of_ids ?bits ?num_fingers ?(list_size = 6) ~ids ~seed () =
  let bits = Option.value ~default:40 bits in
  let space = Id.space ~bits in
  let rng = Rng.create ~seed in
  let ids = Array.copy ids in
  Array.sort Int.compare ids;
  let n = Array.length ids in
  let mal = Array.make n false in
  let num_fingers = Option.value ~default:bits num_fingers in
  { n; f = 0.0; space; ids; mal; num_fingers; list_size; rng }

(* First rank whose id is >= key, wrapping: a lower-bound search. *)
let owner_rank t ~key =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.ids mid >= key then hi := mid else lo := mid + 1
  done;
  if !lo = t.n then 0 else !lo

let rank_distance_cw t a b = (b - a + t.n) mod t.n

let finger_rank t ~rank ~index =
  owner_rank t ~key:(Id.add t.space t.ids.(rank) (1 lsl index))

let lookup_path ?(exclude_target = true) t ~from ~key =
  let target = owner_rank t ~key in
  let target_id = t.ids.(target) in
  (* Spans of indexes at or above [bits] wrap the whole ring: never a hop. *)
  let top = Int.min t.num_fingers (Id.bits t.space) - 1 in
  (* Greedy: from the current rank, jump to the finger that lands closest
     before the target; once within [list_size] the successor list covers
     the key and the lookup ends at the current node. *)
  let rec go current acc steps =
    if steps > 64 then List.rev acc
    else begin
      let remaining = rank_distance_cw t current target in
      if remaining = 0 || remaining <= t.list_size then List.rev acc
      else begin
        (* Best finger: largest 2^i jump not overshooting the target. A
           finger with span 2^i < [dist_id] lands in (current, target], and
           a higher index never lands farther from the target, so the
           closest one is the highest such index — except that the target
           itself is never queried in a real lookup (its address comes from
           the last table's successor list); step down past fingers landing
           on it. The adversary's virtual replay towards a *queried* node
           may land on it. *)
        let dist_id = Id.distance_cw t.space t.ids.(current) target_id in
        let rec best i =
          if i < 0 then None
          else if 1 lsl i >= dist_id then best (i - 1)
          else begin
            let fr = finger_rank t ~rank:current ~index:i in
            if exclude_target && fr = target then best (i - 1) else Some fr
          end
        in
        match best top with
        | None -> List.rev acc
        | Some next -> go next (next :: acc) (steps + 1)
      end
    end
  in
  go from [] 0

let random_rank t = Rng.int t.rng t.n

let random_honest_rank t =
  let rec go () =
    let r = random_rank t in
    if t.mal.(r) then go () else r
  in
  go ()

let random_key t = Id.random t.space t.rng
