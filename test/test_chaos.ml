(* End-to-end chaos tests: every fault regime must degrade gracefully
   (lookup success above its documented floor, ring re-converged after
   heal, zero invariant violations — including "corrupted documents are
   never accepted"), chaos runs must be same-seed deterministic, and a
   configuration without a fault plan must not engage the fault layer at
   all. *)

module Trace = Octo_sim.Trace
module Regime = Octo_experiments.Regime
module Scenario = Octo_experiments.Scenario

(* Small but not tiny: large enough for rings to survive a quarter of
   the nodes disappearing, small enough to keep the suite fast. *)
let n = 24
let duration = 80.0

let regime name =
  match Octo_experiments.Registry.select ("chaos/" ^ name) with
  | Some [ r ] -> r
  | _ -> Alcotest.failf "no regime chaos/%s" name

let run ?(seed = 7) name =
  (regime name).Regime.body
    { Regime.n; duration; seed; queries = 1; cache = false; chaos = false }

let count r field = Regime.int_field r field

let check_regime name ~expect_faults =
  let r = run name in
  let floor = Option.get (regime name).Regime.floor in
  Alcotest.(check bool)
    (Printf.sprintf "%s: fault layer engaged" name)
    true (expect_faults r > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: lookups ran" name)
    true (r.Regime.lookups_done > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: success %.2f above floor %.2f" name (Regime.success_rate r) floor)
    true (Regime.passed (regime name) r);
  (* The regime body has already run the post-heal convergence check and
     the end-of-run reconciliation (byte accounting, corrupt-acceptance
     watch list) against the checker. *)
  (match Octopus.Invariant.violations r.Regime.checker with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name
      (List.length (Octopus.Invariant.violations r.Regime.checker))
      v.Octopus.Invariant.what);
  r

let test_partition () =
  ignore (check_regime "partition" ~expect_faults:(fun r -> count r "drops"))

let test_corruption () =
  let r = check_regime "corrupt" ~expect_faults:(fun r -> count r "corruptions") in
  (* The invariant checker's clean bill above implies the watch list
     stayed empty: thousands of garbled documents crossed the wire and
     not one passed verification. Make the volume explicit. *)
  Alcotest.(check bool) "corruption actually exercised" true (count r "corruptions" > 50)

let test_dup_reorder () =
  let r =
    check_regime "dup-reorder" ~expect_faults:(fun r ->
        count r "duplicates" + count r "reorders")
  in
  Alcotest.(check bool) "duplicates seen" true (count r "duplicates" > 0);
  Alcotest.(check bool) "reorders seen" true (count r "reorders" > 0)

let test_crash_burst () =
  let r = check_regime "crash" ~expect_faults:(fun r -> count r "crashes") in
  Alcotest.(check int) "an eighth of the ring crashed" (n / 8) (count r "crashes")

let test_outage () =
  ignore (check_regime "outage" ~expect_faults:(fun r -> count r "drops"))

(* ------------------------------------------------------------------ *)
(* Determinism *)

let trace_lines r = List.map Trace.to_json (Trace.events r.Regime.trace)

let test_same_seed_byte_identical () =
  let a = trace_lines (run "partition") in
  let b = trace_lines (run "partition") in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2 (fun x y -> Alcotest.(check string) "identical event" x y) a b

let test_seeds_differ () =
  let a = trace_lines (run "partition") in
  let b = trace_lines (run ~seed:11 "partition") in
  Alcotest.(check bool) "different seeds diverge" true (a <> b)

(* ------------------------------------------------------------------ *)
(* No plan: the fault layer must stay out of the loop entirely *)

let test_no_plan_no_fault_layer () =
  let trace = Trace.create () in
  Trace.install trace;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let spec = Scenario.make ~seed:7 ~n:16 ~duration:30.0 () in
      let sc = Scenario.run spec in
      Alcotest.(check bool) "no fault engine installed" true (Scenario.fault sc = None);
      let faulty =
        List.exists
          (fun (ev : Trace.event) ->
            match ev.Trace.data with
            | Trace.Fault_phase _ | Trace.Fault_crash _ | Trace.Fault_recover _
            | Trace.Net_drop _ ->
              true
            | _ -> false)
          (Trace.events trace)
      in
      Alcotest.(check bool) "no fault events in trace" false faulty)

let test_regime_names_roundtrip () =
  List.iter
    (fun (r : Regime.t) ->
      match Octo_experiments.Registry.select ("chaos/" ^ r.Regime.name) with
      | Some [ r' ] -> Alcotest.(check bool) "roundtrip" true (r == r')
      | _ -> Alcotest.failf "name %s does not parse back" (Regime.id r))
    Octo_experiments.Chaos_exp.regimes;
  Alcotest.(check bool) "unknown name rejected" true
    (Octo_experiments.Registry.select "chaos/nope" = None)

let () =
  Alcotest.run "chaos"
    [ ( "regimes",
        [ Alcotest.test_case "partition heals and converges" `Slow test_partition;
          Alcotest.test_case "corruption never accepted" `Slow test_corruption;
          Alcotest.test_case "duplication and reordering" `Slow test_dup_reorder;
          Alcotest.test_case "crash burst recovers" `Slow test_crash_burst;
          Alcotest.test_case "regional outage" `Slow test_outage;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed byte-identical" `Slow test_same_seed_byte_identical;
          Alcotest.test_case "seeds diverge" `Slow test_seeds_differ;
        ] );
      ( "plumbing",
        [ Alcotest.test_case "no plan, no fault layer" `Quick test_no_plan_no_fault_layer;
          Alcotest.test_case "regime names roundtrip" `Quick test_regime_names_roundtrip;
        ] );
    ]
