module Rng = Octo_sim.Rng

type t = {
  xi_hist : float array; (* bucketed min distance *)
  gamma_hist : float array array; (* size bucket -> location bucket (32 cells) *)
  chi_hist : float array array; (* count (capped) -> hop bucket *)
  mean_path : float;
}

let dist_bucket d = if d <= 0 then 0 else min 40 (1 + int_of_float (Float.log2 (float_of_int d)))
let size_bucket z = if z <= 1 then 0 else min 30 (int_of_float (Float.log2 (float_of_int z)))
let hop_bucket h = if h <= 1 then 0 else min 45 (int_of_float (Float.log2 (float_of_int h)))
let loc_cells = 32

let loc_cell ~loc ~size =
  let frac = float_of_int (loc - 1) /. float_of_int (max 1 size) in
  Int.min (loc_cells - 1) (int_of_float (frac *. float_of_int loc_cells))

let normalize arr =
  let total = Array.fold_left ( +. ) 0.0 arr in
  if total > 0.0 then Array.iteri (fun i v -> arr.(i) <- v /. total) arr

let build model ?(samples = 3000) ~p_link () =
  let rng = Rng.split (Ring_model.rng model) in
  let xi_hist = Array.make 42 0.0 in
  let gamma_hist = Array.init 31 (fun _ -> Array.make loc_cells 0.0) in
  let chi_hist = Array.init 17 (fun _ -> Array.make 47 0.0) in
  let total_path = ref 0 in
  for _ = 1 to samples do
    let from = Ring_model.random_rank model in
    let key = Ring_model.random_key model in
    let target = Ring_model.owner_rank model ~key in
    let path = Ring_model.lookup_path model ~from ~key in
    total_path := !total_path + List.length path;
    (* Draw per-query linkability. *)
    let linkable = List.filter (fun _ -> Rng.coin rng p_link) path in
    (match linkable with
    | [] -> ()
    | _ ->
      let dmin =
        List.fold_left
          (fun acc r -> Int.min acc (Ring_model.rank_distance_cw model r target))
          max_int linkable
      in
      xi_hist.(dist_bucket dmin) <- xi_hist.(dist_bucket dmin) +. 1.0;
      (* chi: joint stats of the true linkable set. *)
      let count = min 16 (List.length linkable) in
      let replay = Range_attack.replay model linkable in
      let hop = Range_attack.largest_hop replay in
      chi_hist.(count).(hop_bucket hop) <- chi_hist.(count).(hop_bucket hop) +. 1.0;
      (* gamma: where the target falls in the range estimated from the
         true linkable set. *)
      (match Range_attack.estimate replay with
      | Some (lo, size) ->
        let loc = Ring_model.rank_distance_cw model lo target in
        if loc >= 1 && loc <= size then begin
          let sb = size_bucket size in
          let lc = loc_cell ~loc ~size in
          gamma_hist.(sb).(lc) <- gamma_hist.(sb).(lc) +. 1.0
        end
      | None -> ()))
  done;
  normalize xi_hist;
  Array.iter normalize gamma_hist;
  let chi_total = Array.fold_left (fun acc row -> acc +. Array.fold_left ( +. ) 0.0 row) 0.0 chi_hist in
  if chi_total > 0.0 then
    Array.iter (fun row -> Array.iteri (fun i v -> row.(i) <- v /. chi_total) row) chi_hist;
  {
    xi_hist;
    gamma_hist;
    chi_hist;
    mean_path = float_of_int !total_path /. float_of_int samples;
  }

let eps = 1e-6
let xi t d = t.xi_hist.(dist_bucket d) +. eps

let gamma t ~loc ~size =
  let row = t.gamma_hist.(size_bucket size) in
  let cell = row.(loc_cell ~loc ~size) in
  (* Spread the bucket mass over the ranks it covers. *)
  let per_rank = cell /. Float.max 1.0 (float_of_int size /. float_of_int loc_cells) in
  per_rank +. (eps /. float_of_int (max 1 size))

let chi t ~count ~largest_hop = t.chi_hist.(min 16 count).(hop_bucket largest_hop) +. eps
let mean_path_length t = t.mean_path
