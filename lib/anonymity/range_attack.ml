module Id = Octo_chord.Id

type replay = {
  model : Ring_model.t;
  subset : int list;
  trajectory : int list Lazy.t;
      (* [first] followed by the greedy lookup trajectory from the first
         query towards the last one's id (the adversary's local replay),
         ending at the last; only forced for subsets of two or more *)
}

let replay model subset =
  let trajectory =
    lazy
      (match subset with
      | [] -> []
      | first :: _ ->
        let last = List.nth subset (List.length subset - 1) in
        let key = Ring_model.id_of model last in
        let path = Ring_model.lookup_path ~exclude_target:false model ~from:first ~key in
        (* The replayed trajectory ends at (or just before) [last]. *)
        first :: (if List.exists (fun r -> r = last) path then path else path @ [ last ]))
  in
  { model; subset; trajectory }

let monotone model = function
  | [] | [ _ ] -> true
  | first :: rest ->
    let rec ok prev = function
      | [] -> true
      | r :: tl ->
        Ring_model.rank_distance_cw model first r
        > Ring_model.rank_distance_cw model first prev
        && ok r tl
    in
    ok first rest

let passes_filter r =
  match r.subset with
  | [] | [ _ ] -> true
  | subset ->
    monotone r.model subset
    &&
    let path = Lazy.force r.trajectory in
    List.for_all (fun q -> List.mem q path) subset

let largest_hop r =
  match r.subset with
  | [] | [ _ ] -> 0
  | _ ->
    let space = Ring_model.space r.model in
    let rec max_gap prev acc = function
      | [] -> acc
      | q :: tl ->
        let gap =
          Id.distance_cw space (Ring_model.id_of r.model prev) (Ring_model.id_of r.model q)
        in
        max_gap q (Int.max acc gap) tl
    in
    (match Lazy.force r.trajectory with [] -> 0 | p :: tl -> max_gap p 0 tl)

(* Upper bound via the finger-overshoot argument: walking the virtual
   lookup, each hop E_k -> E_k+1 used some finger index p of E_k; the
   (p+1)-th finger of E_k must overshoot the target. All such fingers are
   upper bounds; the tightest is the one closest past the lower bound
   (the last queried node). *)
let upper_bound model ~lo path =
  let space = Ring_model.space model in
  let bits = Id.bits space in
  let rec tighten bound = function
    | a :: (b :: _ as rest) ->
      let gap = Id.distance_cw space (Ring_model.id_of model a) (Ring_model.id_of model b) in
      (* Index of the finger that reached b: floor(log2 gap). *)
      let p = if gap <= 1 then 0 else int_of_float (Float.log2 (float_of_int gap)) in
      let bound' =
        if p + 1 >= bits then bound
        else begin
          let cand = Ring_model.finger_rank model ~rank:a ~index:(p + 1) in
          if Ring_model.rank_distance_cw model lo cand = 0 then bound
          else begin
            match bound with
            | None -> Some cand
            | Some cur ->
              if
                Ring_model.rank_distance_cw model lo cand
                < Ring_model.rank_distance_cw model lo cur
              then Some cand
              else bound
          end
        end
      in
      tighten bound' rest
    | [ _ ] | [] -> bound
  in
  tighten None path

let estimate r =
  let model = r.model in
  match r.subset with
  | [] -> None
  | [ only ] ->
    (* One observation: the target follows it, somewhere within the
       query-density horizon; use a successor span as the paper does. *)
    Some (only, Ring_model.n model / 64)
  | subset ->
    let lo = List.nth subset (List.length subset - 1) in
    let size =
      match upper_bound model ~lo (Lazy.force r.trajectory) with
      | Some ub ->
        let d = Ring_model.rank_distance_cw model lo ub in
        if d = 0 then 1 else d
      | None -> Ring_model.n model / 64
    in
    Some (lo, max 1 size)
