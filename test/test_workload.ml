(* Property and determinism tests for the open-loop workload engine:
   Zipf key popularity matching its exponent, Poisson/MMPP inter-arrival
   means converging to theory, RNG-split stream independence, and
   byte-identical same-seed runs at the trace level.

   Every statistical test draws from a fixed-seed generator, so the
   statistic is a deterministic function of the QCheck-generated
   parameters — tolerances guard model error, not run-to-run noise. *)

module Rng = Octo_sim.Rng
module Trace = Octo_sim.Trace
module Workload = Octo_experiments.Workload
module Zipf = Workload.Zipf
module Arrivals = Workload.Arrivals

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Zipf sampler *)

let prop_zipf_pmf_normalized =
  QCheck.Test.make ~name:"zipf pmf sums to 1" ~count:100
    QCheck.(pair (float_range 0.2 2.5) (int_range 1 128))
    (fun (s, n) ->
      let z = Zipf.create ~s ~n () in
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. Zipf.pmf z i
      done;
      Float.abs (!total -. 1.0) < 1e-9 && Zipf.support z = n && Zipf.exponent z = s)

(* Chi-square-style goodness of fit: draw a fixed-size sample and compare
   rank frequencies against the analytic pmf. Only ranks with a healthy
   expected count enter the statistic (the classic >= 5 rule); the bound
   is loose relative to the chi-square quantile because the sample is
   deterministic — it guards against sampling from the wrong exponent,
   not against noise. A mismatched exponent (e.g. s vs s/2) blows the
   statistic up by orders of magnitude. *)
let prop_zipf_frequencies_match_exponent =
  QCheck.Test.make ~name:"zipf rank frequencies match exponent" ~count:20
    QCheck.(pair (float_range 0.5 2.0) (int_range 8 64))
    (fun (s, n) ->
      let z = Zipf.create ~s ~n () in
      let rng = Rng.create ~seed:42 in
      let m = 20_000 in
      let counts = Array.make n 0 in
      for _ = 1 to m do
        let r = Zipf.sample z rng in
        if r < 0 || r >= n then QCheck.Test.fail_report "sample out of support";
        counts.(r) <- counts.(r) + 1
      done;
      let chi2 = ref 0.0 and df = ref 0 in
      for i = 0 to n - 1 do
        let expected = float_of_int m *. Zipf.pmf z i in
        if expected >= 5.0 then begin
          let d = float_of_int counts.(i) -. expected in
          chi2 := !chi2 +. (d *. d /. expected);
          incr df
        end
      done;
      (* 99.99th chi-square percentile at df=63 is ~117; triple it. *)
      !chi2 < (3.0 *. float_of_int !df) +. 160.0)

let prop_zipf_head_heavier_than_tail =
  QCheck.Test.make ~name:"zipf head outweighs tail" ~count:50
    QCheck.(pair (float_range 0.5 2.0) (int_range 8 128))
    (fun (s, n) ->
      let z = Zipf.create ~s ~n () in
      let rng = Rng.create ~seed:7 in
      let head = ref 0 in
      let m = 4_000 in
      for _ = 1 to m do
        if Zipf.sample z rng < n / 2 then incr head
      done;
      (* Rank 0 alone outweighs rank n-1 by (n)^s; the lower half always
         carries well over half the mass. *)
      float_of_int !head > 0.55 *. float_of_int m)

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let arrivals_gaps process ~seed ~m =
  let t = Arrivals.create process (Rng.create ~seed) in
  let gaps = Array.make m 0.0 in
  let now = ref 0.0 in
  for i = 0 to m - 1 do
    let next = Arrivals.next t ~now:!now in
    if next <= !now then failwith "arrivals must be strictly increasing";
    gaps.(i) <- next -. !now;
    now := next
  done;
  gaps

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let prop_poisson_interarrival_mean =
  QCheck.Test.make ~name:"poisson inter-arrival mean is 1/rate" ~count:25
    QCheck.(float_range 5.0 200.0)
    (fun rate ->
      let gaps = arrivals_gaps (Arrivals.Poisson { rate }) ~seed:11 ~m:20_000 in
      let expected = 1.0 /. rate in
      Float.abs (mean gaps -. expected) < 0.05 *. expected)

let test_mmpp_interarrival_mean () =
  (* Burst preset parameters: 400 q/s for mean 5 s on, 10 q/s for mean
     15 s off. Long-run arrival rate = (400*5 + 10*15) / (5 + 15) =
     107.5 q/s, so the mean gap converges to 20/2150 s. The estimate
     averages over ~350 on/off cycles; 10% tolerance covers the
     cycle-level variance of this one fixed seed. *)
  let process =
    Arrivals.Mmpp { rate_on = 400.0; rate_off = 10.0; mean_on = 5.0; mean_off = 15.0 }
  in
  let gaps = arrivals_gaps process ~seed:13 ~m:800_000 in
  let expected = 20.0 /. 2150.0 in
  let got = mean gaps in
  Alcotest.(check bool)
    (Printf.sprintf "mmpp mean gap %g within 10%% of %g" got expected)
    true
    (Float.abs (got -. expected) < 0.10 *. expected)

let test_mmpp_rate_at_phases () =
  let process =
    Arrivals.Mmpp { rate_on = 400.0; rate_off = 10.0; mean_on = 5.0; mean_off = 15.0 }
  in
  let t = Arrivals.create process (Rng.create ~seed:3) in
  (* Walk a long stretch of arrivals; both phase rates must be observed. *)
  let seen_on = ref false and seen_off = ref false in
  let now = ref 0.0 in
  for _ = 1 to 50_000 do
    now := Arrivals.next t ~now:!now;
    let r = Arrivals.rate_at t ~now:!now in
    if r = 400.0 then seen_on := true
    else if r = 10.0 then seen_off := true
    else Alcotest.failf "unexpected instantaneous rate %g" r
  done;
  Alcotest.(check bool) "visited on phase" true !seen_on;
  Alcotest.(check bool) "visited off phase" true !seen_off

let test_diurnal_rate_modulates () =
  let base = 40.0 and amplitude = 0.8 and period = 600.0 in
  let t = Arrivals.create (Arrivals.Diurnal { base; amplitude; period }) (Rng.create ~seed:5) in
  (* Peak of the sinusoid at t = period/4, trough at 3*period/4. *)
  let peak = Arrivals.rate_at t ~now:(period /. 4.0) in
  let trough = Arrivals.rate_at t ~now:(3.0 *. period /. 4.0) in
  Alcotest.(check (float 1e-6)) "peak rate" (base *. (1.0 +. amplitude)) peak;
  Alcotest.(check (float 1e-6)) "trough rate" (base *. (1.0 -. amplitude)) trough;
  (* Thinning must still produce strictly increasing arrivals. *)
  let now = ref 0.0 in
  for _ = 1 to 10_000 do
    let next = Arrivals.next t ~now:!now in
    Alcotest.(check bool) "strictly increasing" true (next > !now);
    now := next
  done

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_generators_same_seed_identical () =
  let draws process seed =
    let t = Arrivals.create process (Rng.create ~seed) in
    let now = ref 0.0 in
    List.init 1_000 (fun _ ->
        now := Arrivals.next t ~now:!now;
        !now)
  in
  List.iter
    (fun (name, regime) ->
      let p = Workload.process_of regime in
      Alcotest.(check (list (float 0.0)))
        (name ^ " arrivals bit-identical")
        (draws p 21) (draws p 21))
    [ ("steady", Workload.Steady); ("burst", Workload.Burst); ("diurnal", Workload.Diurnal) ];
  let z = Zipf.create ~s:1.0 ~n:512 () in
  let ranks seed =
    let rng = Rng.create ~seed in
    List.init 1_000 (fun _ -> Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "zipf ranks bit-identical" (ranks 33) (ranks 33)

let test_rng_split_streams_independent () =
  (* Drawing from one split stream must not perturb its sibling: stream b
     yields the same sequence whether or not stream a was consumed. *)
  let master1 = Rng.create ~seed:99 in
  let a1 = Rng.split master1 in
  let b1 = Rng.split master1 in
  for _ = 1 to 100 do
    ignore (Rng.unit_float a1)
  done;
  let b1_draws = List.init 100 (fun _ -> Rng.unit_float b1) in
  let master2 = Rng.create ~seed:99 in
  let _a2 = Rng.split master2 in
  let b2 = Rng.split master2 in
  let b2_draws = List.init 100 (fun _ -> Rng.unit_float b2) in
  Alcotest.(check (list (float 0.0))) "sibling stream unperturbed" b2_draws b1_draws

let trace_lines (r : Workload.result) =
  List.map Trace.to_json (Trace.events r.Workload.outcome.Octo_experiments.Regime.trace)

let test_run_same_seed_byte_identical () =
  let go () = Workload.run ~n:16 ~seed:5 ~queries:50 ~regime:Workload.Steady () in
  let r1 = go () and r2 = go () in
  Alcotest.(check bool) "issued something" true (r1.Workload.issued > 0);
  Alcotest.(check int) "issued equal" r1.Workload.issued r2.Workload.issued;
  Alcotest.(check int) "converged equal" r1.Workload.converged r2.Workload.converged;
  Alcotest.(check (list string)) "traces byte-identical" (trace_lines r1) (trace_lines r2)

let test_run_chaos_same_seed_byte_identical () =
  let go () = Workload.run ~n:16 ~seed:5 ~queries:50 ~chaos:true ~regime:Workload.Steady () in
  let r1 = go () and r2 = go () in
  Alcotest.(check (list string)) "chaos traces byte-identical" (trace_lines r1) (trace_lines r2)

let test_regime_names_round_trip () =
  Alcotest.(check (list string))
    "load regime names" [ "steady"; "burst"; "diurnal" ]
    (List.map (fun (r : Octo_experiments.Regime.t) -> r.Octo_experiments.Regime.name)
       Workload.regimes);
  List.iter
    (fun (r : Octo_experiments.Regime.t) ->
      match Octo_experiments.Registry.select (Octo_experiments.Regime.id r) with
      | Some [ r' ] -> Alcotest.(check bool) "round trip" true (r == r')
      | _ -> Alcotest.fail "regime name did not round-trip")
    Workload.regimes;
  Alcotest.(check bool) "unknown name rejected" true
    (Octo_experiments.Registry.select "load/lunar" = None)

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        qsuite
          [
            prop_zipf_pmf_normalized;
            prop_zipf_frequencies_match_exponent;
            prop_zipf_head_heavier_than_tail;
          ] );
      ( "arrivals",
        [
          Alcotest.test_case "mmpp mean gap" `Slow test_mmpp_interarrival_mean;
          Alcotest.test_case "mmpp phase rates" `Quick test_mmpp_rate_at_phases;
          Alcotest.test_case "diurnal modulation" `Quick test_diurnal_rate_modulates;
        ]
        @ qsuite [ prop_poisson_interarrival_mean ] );
      ( "determinism",
        [
          Alcotest.test_case "generators same seed" `Quick test_generators_same_seed_identical;
          Alcotest.test_case "rng split independence" `Quick test_rng_split_streams_independent;
          Alcotest.test_case "run byte-identical" `Slow test_run_same_seed_byte_identical;
          Alcotest.test_case "chaos run byte-identical" `Slow
            test_run_chaos_same_seed_byte_identical;
          Alcotest.test_case "regime names" `Quick test_regime_names_round_trip;
        ] );
    ]
