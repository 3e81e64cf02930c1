type t = { id : int; addr : int }

let make ~id ~addr = { id; addr }
let equal a b = a.id = b.id && a.addr = b.addr
let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c else Int.compare a.addr b.addr
let pp fmt t = Format.fprintf fmt "#%d@%d" t.id t.addr

(* Keeps the first peer of each run of equal ids. After a stable sort by
   distance from a point, equal ids are adjacent and in input order. *)
let rec dedupe_adjacent = function
  | a :: b :: rest when a.id = b.id -> dedupe_adjacent (a :: rest)
  | a :: rest -> a :: dedupe_adjacent rest
  | [] -> []

let sort_cw space ~from peers =
  dedupe_adjacent
    (List.stable_sort
       (fun a b -> Int.compare (Id.distance_cw space from a.id) (Id.distance_cw space from b.id))
       peers)

let sort_ccw space ~from peers =
  dedupe_adjacent
    (List.stable_sort
       (fun a b -> Int.compare (Id.distance_cw space a.id from) (Id.distance_cw space b.id from))
       peers)
