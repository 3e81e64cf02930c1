(* End-to-end adversary-campaign tests: every attack regime must hold its
   documented success floor with zero invariant violations (including the
   eclipse watch and post-campaign re-convergence), the Sybil admission
   defense must keep admissions under the rate-limit cap, conviction-driven
   revocation during an eclipse must flush the result cache, and attack
   runs must be same-seed deterministic. *)

module Trace = Octo_sim.Trace
module Regime = Octo_experiments.Regime

(* Smaller than the CLI default (60 nodes, 240 s) but large enough that a
   campaign has honest nodes left to attack; the CLI guard floor is 16. *)
let n = 24
let duration = 120.0

let regime name =
  match Octo_experiments.Registry.select ("attack/" ^ name) with
  | Some [ r ] -> r
  | _ -> Alcotest.failf "no regime attack/%s" name

let run ?(cache = false) ?(seed = 7) name =
  (regime name).Regime.body { Regime.n; duration; seed; queries = 1; cache; chaos = false }

let count r field = Regime.int_field r field

let check_regime ?cache name =
  let r = run ?cache name in
  Alcotest.(check bool)
    (Printf.sprintf "%s: lookups ran" name)
    true (r.Regime.lookups_done > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: success %.2f above floor %.2f" name (Regime.success_rate r)
       (Option.get (regime name).Regime.floor))
    true (Regime.passed (regime name) r);
  (* The regime body already ran post-campaign convergence, the eclipse
     watch, and end-of-run reconciliation against the checker. *)
  (match Octopus.Invariant.violations r.Regime.checker with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name
      (List.length (Octopus.Invariant.violations r.Regime.checker))
      v.Octopus.Invariant.what);
  r

let test_sybil () =
  let r = check_regime "sybil" in
  Alcotest.(check bool) "campaign made requests" true (count r "sybil_requests" > 0);
  Alcotest.(check bool) "limiter refused some" true (count r "sybil_refused" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "admissions %d within cap %d" (count r "sybils_admitted")
       (count r "sybil_cap"))
    true
    (count r "sybils_admitted" <= count r "sybil_cap");
  (* The measured cost curve must show the placement defense raising the
     per-eclipse spend: random assignment beats crafted placement. *)
  List.iter
    (fun label ->
      Alcotest.(check bool) ("cost curve measured: " ^ label) true
        (count r (label ^ ".requests") > 0))
    [ "crafted/open"; "crafted/limited"; "assigned/open"; "assigned/limited" ];
  Alcotest.(check bool) "id assignment raises attack cost" true
    (Regime.float_field r "cost_factor" > 1.0)

let test_eclipse_recovers () =
  let r = check_regime "eclipse" in
  (* Zero violations above already implies no honest node ended the run
     eclipsed; the campaign itself must still have been armed. *)
  let armed =
    List.exists
      (fun (ev : Trace.event) ->
        match ev.Trace.data with
        | Trace.Attack_phase { on = true; _ } -> true
        | _ -> false)
      (Trace.events r.Regime.trace)
  in
  Alcotest.(check bool) "campaign window armed" true armed

let test_eclipse_rcache_flush () =
  (* Regression: surveillance convictions during the eclipse campaign must
     flush cached owners, or clients keep routing to revoked colluders. *)
  let r = check_regime ~cache:true "eclipse" in
  Alcotest.(check bool) "convictions happened" true (count r "revocations" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "every revocation flushed the cache (%d flushes / %d revocations)"
       (count r "cache_flushes") (count r "revocations"))
    true
    (count r "cache_flushes" >= count r "revocations")

let test_churn_range () =
  let r = check_regime "churn-range" in
  Alcotest.(check bool) "fresh estimates produced" true (count r "fresh_total" > 0);
  Alcotest.(check bool) "stale estimates produced" true (count r "stale_total" > 0)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let trace_lines r = List.map Trace.to_json (Trace.events r.Regime.trace)

let test_same_seed_byte_identical () =
  let a = trace_lines (run "sybil") in
  let b = trace_lines (run "sybil") in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2 (fun x y -> Alcotest.(check string) "identical event" x y) a b

let test_seeds_differ () =
  let a = trace_lines (run "sybil") in
  let b = trace_lines (run ~seed:11 "sybil") in
  Alcotest.(check bool) "different seeds diverge" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Plumbing *)

let test_eclipse_watch_counts () =
  (* Unit-level check of [Invariant.check_eclipse]: a freshly bootstrapped
     all-honest ring has no eclipsed nodes, and the [allowed] knob merely
     suppresses flagging, not counting. *)
  let engine = Octo_sim.Engine.create ~seed:3 () in
  let lat_rng = Octo_sim.Rng.split (Octo_sim.Engine.rng engine) in
  let latency = Octo_sim.Latency.create lat_rng ~n:17 in
  let w = Octopus.World.create engine latency ~n:16 in
  let chk = Octopus.Invariant.create w in
  Alcotest.(check int) "no eclipses on honest ring" 0
    (Octopus.Invariant.check_eclipse ~allowed:0 chk);
  Alcotest.(check bool) "no violations recorded" true (Octopus.Invariant.ok chk)

let test_regime_names_roundtrip () =
  List.iter
    (fun (r : Regime.t) ->
      match Octo_experiments.Registry.select ("attack/" ^ r.Regime.name) with
      | Some [ r' ] -> Alcotest.(check bool) "roundtrip" true (r == r')
      | _ -> Alcotest.failf "name %s does not parse back" (Regime.id r))
    Octo_experiments.Attack_exp.regimes;
  Alcotest.(check bool) "unknown name rejected" true
    (Octo_experiments.Registry.select "attack/nope" = None)

let () =
  Alcotest.run "attack"
    [ ( "regimes",
        [ Alcotest.test_case "sybil flood held off" `Slow test_sybil;
          Alcotest.test_case "eclipse heals after campaign" `Slow test_eclipse_recovers;
          Alcotest.test_case "eclipse revocations flush rcache" `Slow
            test_eclipse_rcache_flush;
          Alcotest.test_case "range estimator under churn" `Slow test_churn_range;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed byte-identical" `Slow test_same_seed_byte_identical;
          Alcotest.test_case "seeds diverge" `Slow test_seeds_differ;
        ] );
      ( "plumbing",
        [ Alcotest.test_case "regime names roundtrip" `Quick test_regime_names_roundtrip;
          Alcotest.test_case "eclipse watch clean on honest ring" `Quick
            test_eclipse_watch_counts;
        ] );
    ]
