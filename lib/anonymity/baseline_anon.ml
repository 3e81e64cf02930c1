module Rng = Octo_sim.Rng

type result = { entropy : float; ideal : float; leak : float }
type params = { alpha : float; trials : int; walk_length : int }

let default_params = { alpha = 0.01; trials = 400; walk_length = 3 }

let log2 x = if x <= 0.0 then 0.0 else Float.log2 x

let ideal_of model = log2 ((1.0 -. Ring_model.f model) *. float_of_int (Ring_model.n model))

(* Entropy of "identified with probability p, otherwise uniform over m". *)
let partial_entropy ~p_identified ~candidates =
  (1.0 -. p_identified) *. log2 (Float.max 1.0 candidates)

(* Average number of queried nodes per lookup at this scale. *)
let mean_hops model =
  let total = ref 0 in
  let samples = 200 in
  for _ = 1 to samples do
    let from = Ring_model.random_rank model in
    let key = Ring_model.random_key model in
    total := !total + List.length (Ring_model.lookup_path model ~from ~key)
  done;
  float_of_int !total /. float_of_int samples

(* ------------------------------------------------------------------ *)
(* Chord *)

(* H(I): the precondition is an observed target (T malicious, prob f); a
   lookup toward T is pinned to its initiator as soon as any queried node
   is malicious (source address + key in the clear). *)
let chord_initiator model ?(params = default_params) () =
  ignore params;
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  let h = mean_hops model in
  let p_hit = 1.0 -. ((1.0 -. f) ** h) in
  let entropy = ((1.0 -. f) *. ideal) +. (f *. partial_entropy ~p_identified:p_hit ~candidates:((1.0 -. f) *. float_of_int (Ring_model.n model))) in
  { entropy; ideal; leak = ideal -. entropy }

(* H(T): the precondition is an observed initiator; iterative Chord
   exposes I to every queried node, and the key names T outright. *)
let chord_target model ?(params = default_params) () =
  ignore params;
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  let h = mean_hops model in
  let p_iobs = 1.0 -. ((1.0 -. f) ** h) in
  let h_max = log2 (float_of_int (Ring_model.n model)) in
  (* Once I is observed (some queried node was malicious), that node also
     read the key: T is fully identified. *)
  let entropy = ((1.0 -. p_iobs) *. h_max) +. (p_iobs *. 0.0) in
  { entropy; ideal; leak = ideal -. entropy }

(* ------------------------------------------------------------------ *)
(* NISAN *)

(* The adversary's residual uncertainty about T after the range attack on
   a fully-linkable query trajectory (keys concealed): Monte Carlo. *)
let nisan_range_entropy model ~trials =
  let rng = Rng.split (Ring_model.rng model) in
  let f = Ring_model.f model in
  let total = ref 0.0 and count = ref 0 in
  for _ = 1 to trials do
    let from = Ring_model.random_rank model in
    let key = Ring_model.random_key model in
    let path = Ring_model.lookup_path model ~from ~key in
    let observed = List.filter (fun _ -> Rng.coin rng f) path in
    match Range_attack.(estimate (replay model observed)) with
    | Some (_, size) when observed <> [] ->
      total := !total +. log2 (float_of_int (max 1 size));
      incr count
    | _ -> ()
  done;
  if !count = 0 then log2 (float_of_int (Ring_model.n model))
  else !total /. float_of_int !count

let nisan_initiator model ?(params = default_params) () =
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  let h = mean_hops model in
  let p_hit = 1.0 -. ((1.0 -. f) ** h) in
  (* Identified initiators still enjoy the small ambiguity of which
     concurrent lookup converges on T (range estimation is not exact). *)
  let residual_lookups =
    Float.max 1.0 (params.alpha *. float_of_int (Ring_model.n model) *. 0.002)
  in
  let h_given_obs =
    ((1.0 -. p_hit) *. ideal) +. (p_hit *. log2 residual_lookups)
  in
  let entropy = ((1.0 -. f) *. ideal) +. (f *. h_given_obs) in
  { entropy; ideal; leak = ideal -. entropy }

let nisan_target model ?(params = default_params) () =
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  let h_max = log2 (float_of_int (Ring_model.n model)) in
  let h = mean_hops model in
  let p_iobs = 1.0 -. ((1.0 -. f) ** h) in
  let h_range = nisan_range_entropy model ~trials:params.trials in
  let entropy = ((1.0 -. p_iobs) *. h_max) +. (p_iobs *. h_range) in
  { entropy; ideal; leak = ideal -. entropy }

(* ------------------------------------------------------------------ *)
(* Torsk *)

let torsk_initiator model ?(params = default_params) () =
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  (* Linking I to an observed T requires compromising the buddy walk: any
     malicious hop on the 2l-hop walk can correlate the buddy request with
     the initiator ([38]'s walk attacks). *)
  let p_walk = 1.0 -. ((1.0 -. f) ** float_of_int (2 * params.walk_length)) in
  let h_given_obs = partial_entropy ~p_identified:p_walk ~candidates:((1.0 -. f) *. float_of_int (Ring_model.n model)) in
  let entropy = ((1.0 -. f) *. ideal) +. (f *. h_given_obs) in
  { entropy; ideal; leak = ideal -. entropy }

let torsk_target model ?(params = default_params) () =
  let f = Ring_model.f model in
  let ideal = ideal_of model in
  let h_max = log2 (float_of_int (Ring_model.n model)) in
  (* I is observed through the walk (first hop) or the buddy itself. *)
  let p_iobs = 1.0 -. ((1.0 -. f) ** 2.0) in
  let h = mean_hops model in
  let p_path_obs = 1.0 -. ((1.0 -. f) ** h) in
  let h_range = nisan_range_entropy model ~trials:params.trials in
  (* Given I observed: a malicious buddy reads the key (T identified);
     otherwise the buddy's plain lookup leaks T by range estimation when
     observed — the buddy's queries are all linkable to the buddy. *)
  let h_given_obs =
    (f *. 0.0)
    +. ((1.0 -. f) *. (((1.0 -. p_path_obs) *. h_max) +. (p_path_obs *. h_range)))
  in
  let entropy = ((1.0 -. p_iobs) *. h_max) +. (p_iobs *. h_given_obs) in
  { entropy; ideal; leak = ideal -. entropy }
