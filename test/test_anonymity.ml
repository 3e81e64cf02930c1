(* Tests for the anonymity analysis: ring model invariants, range
   estimation, pre-simulated distributions, the Octopus entropy estimators
   and their paper-shape properties, the baseline models' orderings, and
   the timing-analysis attack. *)

open Octo_anonymity
module Id = Octo_chord.Id

let model = lazy (Ring_model.create ~n:5000 ~f:0.2 ~seed:3 ())

(* ------------------------------------------------------------------ *)
(* Ring model *)

let test_ring_sorted_owner () =
  let m = Lazy.force model in
  (* owner_rank is the clockwise successor: no rank sits strictly between
     the key and its owner. *)
  for _ = 1 to 200 do
    let key = Ring_model.random_key m in
    let owner = Ring_model.owner_rank m ~key in
    let owner_id = Ring_model.id_of m owner in
    Alcotest.(check bool) "owner succeeds key" true (owner_id >= key || owner = 0);
    if owner > 0 then
      Alcotest.(check bool) "predecessor precedes key" true
        (Ring_model.id_of m (owner - 1) < key)
  done

let test_ring_rank_distance () =
  let m = Lazy.force model in
  Alcotest.(check int) "forward" 5 (Ring_model.rank_distance_cw m 10 15);
  Alcotest.(check int) "wrap" (Ring_model.n m - 5) (Ring_model.rank_distance_cw m 15 10);
  Alcotest.(check int) "self" 0 (Ring_model.rank_distance_cw m 7 7)

let test_ring_lookup_path_approaches_target () =
  let m = Lazy.force model in
  for _ = 1 to 100 do
    let from = Ring_model.random_rank m in
    let key = Ring_model.random_key m in
    let target = Ring_model.owner_rank m ~key in
    let path = Ring_model.lookup_path m ~from ~key in
    (* Monotone progress: each queried rank is closer to the target. *)
    let rec monotone prev = function
      | [] -> true
      | r :: rest ->
        Ring_model.rank_distance_cw m r target < Ring_model.rank_distance_cw m prev target
        && monotone r rest
    in
    Alcotest.(check bool) "monotone towards target" true (monotone from path);
    (* The trajectory ends within successor-list reach. *)
    (match List.rev path with
    | last :: _ ->
      Alcotest.(check bool) "ends within list_size" true
        (Ring_model.rank_distance_cw m last target <= 6)
    | [] -> ());
    Alcotest.(check bool) "logarithmic length" true (List.length path <= 30)
  done

let test_ring_finger_rank () =
  let m = Lazy.force model in
  (* Finger 39 of rank 0 jumps roughly half the ring. *)
  let half = Ring_model.finger_rank m ~rank:0 ~index:(Id.bits (Ring_model.space m) - 1) in
  let d = Ring_model.rank_distance_cw m 0 half in
  let n = Ring_model.n m in
  Alcotest.(check bool)
    (Printf.sprintf "half-ring finger lands near n/2 (%d of %d)" d n)
    true
    (abs (d - (n / 2)) < n / 8)

let test_ring_malicious_rate () =
  let m = Lazy.force model in
  let count = ref 0 in
  for r = 0 to Ring_model.n m - 1 do
    if Ring_model.malicious m r then incr count
  done;
  let frac = float_of_int !count /. float_of_int (Ring_model.n m) in
  Alcotest.(check bool) (Printf.sprintf "f ~ 0.2 (%.3f)" frac) true (Float.abs (frac -. 0.2) < 0.03)

(* The ring model against straightforward references: ids drawn by a
   Hashtbl rejection loop, owners by a search that tracks its candidate in
   an option, and every hop choosing among all fingers. *)
module Oracle = struct
  module Rng = Octo_sim.Rng

  let create ~bits ~n ~f ~seed =
    let space = Id.space ~bits in
    let rng = Rng.create ~seed in
    let used = Hashtbl.create (2 * n) in
    let ids =
      Array.init n (fun _ ->
          let rec gen () =
            let id = Id.random space rng in
            if Hashtbl.mem used id then gen ()
            else begin
              Hashtbl.add used id ();
              id
            end
          in
          gen ())
    in
    Array.sort Int.compare ids;
    let mal = Array.init n (fun _ -> Rng.coin rng f) in
    (ids, mal)

  let owner_rank ids ~key =
    let lo = ref 0 and hi = ref (Array.length ids - 1) and res = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if ids.(mid) >= key then begin
        res := Some mid;
        hi := mid - 1
      end
      else lo := mid + 1
    done;
    match !res with Some r -> r | None -> 0

  let lookup_path ~exclude_target ~space ~num_fingers ~list_size ids ~from ~key =
    let n = Array.length ids in
    let rank_distance a b = (b - a + n) mod n in
    let target = owner_rank ids ~key in
    let rec go current acc steps =
      if steps > 64 then List.rev acc
      else begin
        let remaining = rank_distance current target in
        if remaining = 0 || remaining <= list_size then List.rev acc
        else begin
          let dist_id = Id.distance_cw space ids.(current) ids.(target) in
          let best = ref None in
          for i = 0 to num_fingers - 1 do
            let span = 1 lsl i in
            if span < dist_id then begin
              let fr = owner_rank ids ~key:(Id.add space ids.(current) span) in
              let d = rank_distance fr target in
              if fr <> current && d < remaining && ((not exclude_target) || d >= 1) then begin
                match !best with
                | Some (_, bd) when bd <= d -> ()
                | _ -> best := Some (fr, d)
              end
            end
          done;
          match !best with
          | None -> List.rev acc
          | Some (next, _) -> go next (next :: acc) (steps + 1)
        end
      end
    in
    go from [] 0
end

(* Small rings, dense enough (n up to 0.9 * 2^bits) that ids collide while
   they are drawn; finger counts above [bits] included. *)
let ring_shape =
  QCheck.make
    ~print:(fun (bits, n, num_fingers, list_size, seed) ->
      Printf.sprintf "bits=%d n=%d num_fingers=%d list_size=%d seed=%d" bits n num_fingers
        list_size seed)
    QCheck.Gen.(
      int_range 6 16 >>= fun bits ->
      int_range 1 (9 * (1 lsl bits) / 10) >>= fun n ->
      int_range 1 (bits + 4) >>= fun num_fingers ->
      int_range 0 6 >>= fun list_size ->
      int_bound 1_000_000 >|= fun seed -> (bits, n, num_fingers, list_size, seed))

let prop_ring_matches_oracle =
  QCheck.Test.make ~name:"ring model = all-finger reference" ~count:100 ring_shape
    (fun (bits, n, num_fingers, list_size, seed) ->
      let f = 0.3 in
      let m = Ring_model.create ~bits ~num_fingers ~list_size ~n ~f ~seed () in
      let ids, mal = Oracle.create ~bits ~n ~f ~seed in
      let space = Ring_model.space m in
      Array.iteri
        (fun r id ->
          if Ring_model.id_of m r <> id || Ring_model.malicious m r <> mal.(r) then
            QCheck.Test.fail_reportf "rank %d: id %d vs %d, malicious %b vs %b" r
              (Ring_model.id_of m r) id (Ring_model.malicious m r) mal.(r))
        ids;
      let rng = Octo_sim.Rng.create ~seed:(seed + 1) in
      for pair = 1 to 50 do
        let from = Octo_sim.Rng.int rng n in
        (* Half the keys are node ids, as in the adversary's replays. *)
        let key =
          if pair mod 2 = 0 then ids.(Octo_sim.Rng.int rng n) else Id.random space rng
        in
        if Ring_model.owner_rank m ~key <> Oracle.owner_rank ids ~key then
          QCheck.Test.fail_reportf "owner of key %d" key;
        List.iter
          (fun exclude_target ->
            let got = Ring_model.lookup_path ~exclude_target m ~from ~key in
            let want =
              Oracle.lookup_path ~exclude_target ~space ~num_fingers ~list_size ids ~from ~key
            in
            if got <> want then
              QCheck.Test.fail_reportf "path from %d to key %d (exclude_target=%b)" from key
                exclude_target)
          [ true; false ]
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Range estimation *)

let test_range_contains_target () =
  let m = Lazy.force model in
  let hits = ref 0 and total = ref 0 in
  for _ = 1 to 150 do
    let from = Ring_model.random_rank m in
    let key = Ring_model.random_key m in
    let target = Ring_model.owner_rank m ~key in
    let path = Ring_model.lookup_path m ~from ~key in
    if List.length path >= 2 then begin
      incr total;
      match Range_attack.(estimate (replay m path)) with
      | Some (lo, size) ->
        let pos = Ring_model.rank_distance_cw m lo target in
        if pos >= 1 && pos <= size then incr hits
      | None -> ()
    end
  done;
  (* The estimation range bounds must contain the true target virtually
     always when computed over the full trajectory. *)
  Alcotest.(check bool)
    (Printf.sprintf "target inside range %d/%d" !hits !total)
    true
    (!total > 50 && float_of_int !hits /. float_of_int !total > 0.95)

let test_range_full_path_passes_filter () =
  let m = Lazy.force model in
  for _ = 1 to 50 do
    let from = Ring_model.random_rank m in
    let key = Ring_model.random_key m in
    let path = Ring_model.lookup_path m ~from ~key in
    if path <> [] then
      Alcotest.(check bool) "true trajectory passes" true Range_attack.(passes_filter (replay m path))
  done

let test_range_filter_rejects_shuffled () =
  let m = Lazy.force model in
  let rejected = ref 0 and total = ref 0 in
  for _ = 1 to 100 do
    let from = Ring_model.random_rank m in
    let key = Ring_model.random_key m in
    let path = Ring_model.lookup_path m ~from ~key in
    if List.length path >= 3 then begin
      incr total;
      (* Reversing the query order violates clockwise monotonicity. *)
      if not Range_attack.(passes_filter (replay m (List.rev path))) then incr rejected
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "shuffled rejected %d/%d" !rejected !total)
    true
    (!total > 30 && !rejected = !total)

let test_range_narrows_with_more_queries () =
  let m = Lazy.force model in
  let total_full = ref 0.0 and total_pair = ref 0.0 and count = ref 0 in
  for _ = 1 to 100 do
    let from = Ring_model.random_rank m in
    let key = Ring_model.random_key m in
    let path = Ring_model.lookup_path m ~from ~key in
    match path with
    | _ :: _ :: _ -> (
      let pair = [ List.hd path; List.nth path (List.length path - 1) ] in
      match Range_attack.(estimate (replay m path), estimate (replay m pair)) with
      | Some (_, s_full), Some (_, s_pair) ->
        incr count;
        total_full := !total_full +. float_of_int s_full;
        total_pair := !total_pair +. float_of_int s_pair
      | _ -> ())
    | _ -> ()
  done;
  Alcotest.(check bool) "full trajectory at least as tight on average" true
    (!count > 30 && !total_full <= !total_pair +. 1.0)

(* ------------------------------------------------------------------ *)
(* Presim distributions *)

let test_presim_normalized () =
  let m = Lazy.force model in
  let p = Presim.build m ~samples:800 ~p_link:0.1 () in
  Alcotest.(check bool) "xi positive" true (Presim.xi p 3 > 0.0);
  let near = Presim.xi p 4 +. Presim.xi p 64 in
  Alcotest.(check bool) "xi concentrated near the target" true
    (near > Presim.xi p (Ring_model.n m / 2));
  Alcotest.(check bool) "gamma positive" true (Presim.gamma p ~loc:1 ~size:50 > 0.0);
  Alcotest.(check bool) "chi positive" true (Presim.chi p ~count:2 ~largest_hop:1024 > 0.0);
  Alcotest.(check bool) "mean path sane" true
    (Presim.mean_path_length p > 1.0 && Presim.mean_path_length p < 30.0)

(* ------------------------------------------------------------------ *)
(* Octopus entropy estimators *)

let quick_params = { Octopus_anon.default_params with trials = 80; presim_samples = 600 }

let test_octopus_initiator_near_ideal () =
  let m = Lazy.force model in
  let r = Octopus_anon.initiator m ~params:quick_params () in
  Alcotest.(check bool)
    (Printf.sprintf "leak %.2f in [0, 2]" r.Octopus_anon.leak)
    true
    (r.Octopus_anon.leak >= -0.2 && r.Octopus_anon.leak <= 2.0)

let test_octopus_target_near_ideal () =
  let m = Lazy.force model in
  let r = Octopus_anon.target m ~params:quick_params () in
  Alcotest.(check bool)
    (Printf.sprintf "leak %.2f in [-1, 2]" r.Octopus_anon.leak)
    true
    (r.Octopus_anon.leak >= -1.0 && r.Octopus_anon.leak <= 2.0)

let test_octopus_leak_grows_with_f () =
  let m1 = Ring_model.create ~n:5000 ~f:0.05 ~seed:4 () in
  let m2 = Ring_model.create ~n:5000 ~f:0.25 ~seed:4 () in
  let r1 = Octopus_anon.initiator m1 ~params:quick_params () in
  let r2 = Octopus_anon.initiator m2 ~params:quick_params () in
  Alcotest.(check bool)
    (Printf.sprintf "leak(f=.05)=%.2f < leak(f=.25)=%.2f" r1.Octopus_anon.leak r2.Octopus_anon.leak)
    true
    (r1.Octopus_anon.leak < r2.Octopus_anon.leak)

let test_dummies_improve_target_anonymity () =
  let m = Lazy.force model in
  let leak d =
    (Octopus_anon.target m ~params:{ quick_params with num_dummies = d; trials = 150 } ())
      .Octopus_anon.leak
  in
  let l0 = leak 0 and l6 = leak 6 in
  Alcotest.(check bool)
    (Printf.sprintf "dummies reduce H(T) leak (%.2f -> %.2f)" l0 l6)
    true (l6 <= l0 +. 0.1)

(* Leaks recorded from the estimators before their fast paths (top-down
   finger choice, dense rank masses, sort-based ring build) went in: the
   rewrites must not move a single bit. *)
let test_golden_leaks () =
  List.iter
    (fun (f, initiator, target, nisan_target) ->
      let m = Ring_model.create ~n:5000 ~f ~seed:3 () in
      let octo = { Octopus_anon.default_params with trials = 200 } in
      let base = { Baseline_anon.default_params with trials = 200 } in
      let check name want got =
        Alcotest.(check string) (Printf.sprintf "%s f=%g" name f) (Printf.sprintf "%h" want)
          (Printf.sprintf "%h" got)
      in
      (* One model per f, estimators in a fixed order: they share its rng. *)
      check "initiator" initiator (Octopus_anon.initiator m ~params:octo ()).Octopus_anon.leak;
      check "target" target (Octopus_anon.target m ~params:octo ()).Octopus_anon.leak;
      check "nisan target" nisan_target
        (Baseline_anon.nisan_target m ~params:base ()).Baseline_anon.leak)
    [
      (0.1, 0x1.00ee25f00fdcp-3, 0x1.9d5e852cce9p-4, 0x1.37baf51b182e4p+1);
      (0.2, 0x1.4e0c8b2d67bap-1, 0x1.4d5ed47105a8p-2, 0x1.00287744cfabp+2);
    ]

(* ------------------------------------------------------------------ *)
(* Baseline models: the paper's orderings *)

let test_initiator_ordering () =
  let m = Lazy.force model in
  let params = { Baseline_anon.default_params with trials = 150 } in
  let octo = (Octopus_anon.initiator m ~params:quick_params ()).Octopus_anon.leak in
  let nisan = (Baseline_anon.nisan_initiator m ~params ()).Baseline_anon.leak in
  let torsk = (Baseline_anon.torsk_initiator m ~params ()).Baseline_anon.leak in
  let chord = (Baseline_anon.chord_initiator m ~params ()).Baseline_anon.leak in
  Alcotest.(check bool)
    (Printf.sprintf "octopus %.2f << nisan %.2f, torsk %.2f, chord %.2f" octo nisan torsk chord)
    true
    (octo < nisan && octo < torsk && octo < chord && chord >= nisan -. 0.5)

let test_target_ordering () =
  let m = Lazy.force model in
  let params = { Baseline_anon.default_params with trials = 150 } in
  let octo = (Octopus_anon.target m ~params:quick_params ()).Octopus_anon.leak in
  let nisan = (Baseline_anon.nisan_target m ~params ()).Baseline_anon.leak in
  let torsk = (Baseline_anon.torsk_target m ~params ()).Baseline_anon.leak in
  let chord = (Baseline_anon.chord_target m ~params ()).Baseline_anon.leak in
  (* Paper: Octopus ~0.8 << Torsk ~3.4 << NISAN ~11.3 < Chord (worst). *)
  Alcotest.(check bool)
    (Printf.sprintf "octopus %.2f < torsk %.2f < nisan %.2f < chord %.2f" octo torsk nisan chord)
    true
    (octo < torsk && torsk < nisan && nisan < chord)

let test_octopus_factor_vs_paper_claim () =
  (* "at least 4-6 times better than previous works" (initiator leak). The
     gap widens with network size; at this test scale (n = 20k vs the
     paper's 100k) a factor of 2 is the conservative check — the bench
     harness reports the full-scale ratio. *)
  let m = Ring_model.create ~n:20_000 ~f:0.2 ~seed:6 () in
  let params = { Baseline_anon.default_params with trials = 150 } in
  let octo = (Octopus_anon.initiator m ~params:quick_params ()).Octopus_anon.leak in
  let nisan = (Baseline_anon.nisan_initiator m ~params ()).Baseline_anon.leak in
  Alcotest.(check bool)
    (Printf.sprintf "nisan/octopus leak ratio %.1f >= 2" (nisan /. Float.max 0.01 octo))
    true
    (nisan /. Float.max 0.01 octo >= 2.0)

(* ------------------------------------------------------------------ *)
(* Timing analysis (Table 1) *)

let test_timing_error_rate_high () =
  let r = Timing.run ~trials:600 ~seed:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "error rate %.3f > 0.98" r.Timing.error_rate)
    true (r.Timing.error_rate > 0.98);
  Alcotest.(check bool)
    (Printf.sprintf "leak %.3f < 0.4 bits" r.Timing.info_leak_bits)
    true
    (r.Timing.info_leak_bits < 0.4)

let test_timing_attack_works_without_delay () =
  (* Sanity: with no hold delay and few candidates, the attack succeeds
     often — the random delay is what breaks it. *)
  let strong = Timing.run ~n:2000 ~alpha:0.001 ~max_delay:0.0001 ~trials:400 ~seed:6 () in
  let weak = Timing.run ~n:2000 ~alpha:0.001 ~max_delay:0.1 ~trials:400 ~seed:6 () in
  Alcotest.(check bool)
    (Printf.sprintf "delay raises error (%.2f -> %.2f)" strong.Timing.error_rate
       weak.Timing.error_rate)
    true
    (weak.Timing.error_rate > strong.Timing.error_rate +. 0.1)

let () =
  Alcotest.run "octo_anonymity"
    [
      ( "ring-model",
        [
          Alcotest.test_case "owner rank" `Quick test_ring_sorted_owner;
          Alcotest.test_case "rank distance" `Quick test_ring_rank_distance;
          Alcotest.test_case "lookup path" `Quick test_ring_lookup_path_approaches_target;
          Alcotest.test_case "finger rank" `Quick test_ring_finger_rank;
          Alcotest.test_case "malicious rate" `Quick test_ring_malicious_rate;
          QCheck_alcotest.to_alcotest prop_ring_matches_oracle;
        ] );
      ( "range-attack",
        [
          Alcotest.test_case "contains target" `Quick test_range_contains_target;
          Alcotest.test_case "true path passes filter" `Quick test_range_full_path_passes_filter;
          Alcotest.test_case "shuffled rejected" `Quick test_range_filter_rejects_shuffled;
          Alcotest.test_case "narrows with queries" `Quick test_range_narrows_with_more_queries;
        ] );
      ("presim", [ Alcotest.test_case "distributions" `Quick test_presim_normalized ]);
      ( "octopus-entropy",
        [
          Alcotest.test_case "H(I) near ideal" `Slow test_octopus_initiator_near_ideal;
          Alcotest.test_case "H(T) near ideal" `Slow test_octopus_target_near_ideal;
          Alcotest.test_case "leak grows with f" `Slow test_octopus_leak_grows_with_f;
          Alcotest.test_case "dummies help H(T)" `Slow test_dummies_improve_target_anonymity;
          Alcotest.test_case "golden leaks" `Quick test_golden_leaks;
        ] );
      ( "orderings",
        [
          Alcotest.test_case "initiator ordering" `Slow test_initiator_ordering;
          Alcotest.test_case "target ordering" `Slow test_target_ordering;
          Alcotest.test_case "4-6x claim direction" `Slow test_octopus_factor_vs_paper_claim;
        ] );
      ( "timing",
        [
          Alcotest.test_case "error rate high" `Quick test_timing_error_rate_high;
          Alcotest.test_case "delay is the defense" `Quick test_timing_attack_works_without_delay;
        ] );
    ]
