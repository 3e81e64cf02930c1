(* Tests for the bench --compare / --fail-above policy: JSON round-trip
   through the octopus-bench/v1 and /v2 schemas, delta pairing, memory
   deltas, and the exit-code contract CI gates on. *)

open Octo_experiments

let full ns ~major ~peak ~bpn =
  {
    Bench_compare.ns_per_op = ns;
    minor_words_per_op = 0.0;
    major_words_per_op = major;
    peak_heap_mb = peak;
    bytes_per_node = bpn;
  }

let row ns = full ns ~major:Float.nan ~peak:Float.nan ~bpn:Float.nan

let sample_json =
  {|{
  "schema": "octopus-bench/v1",
  "kernels": {
    "a/fast": { "ns_per_op": 100.0, "minor_words_per_op": 12.0 },
    "b/slow": { "ns_per_op": 2000.5, "minor_words_per_op": null },
    "c/new": { "ns_per_op": 7.25, "minor_words_per_op": 1.0 }
  }
}|}

let test_parse () =
  let rows = Bench_compare.parse ~path:"sample" sample_json in
  Alcotest.(check int) "three kernels" 3 (List.length rows);
  let a = List.assoc "a/fast" rows in
  Alcotest.(check (float 1e-9)) "ns" 100.0 a.Bench_compare.ns_per_op;
  Alcotest.(check (float 1e-9)) "words" 12.0 a.Bench_compare.minor_words_per_op;
  let b = List.assoc "b/slow" rows in
  Alcotest.(check bool) "null -> nan" true (Float.is_nan b.Bench_compare.minor_words_per_op)

let test_parse_malformed () =
  Alcotest.check_raises "truncated" (Failure "sample: malformed bench json at byte 12: expected :")
    (fun () -> ignore (Bench_compare.parse ~path:"sample" {|{ "kernels" "oops" }|}))

let test_deltas_pairing () =
  let baseline = [ ("k1", row 100.0); ("k2", row 50.0); ("gone", row 10.0) ] in
  let current = [ ("k1", row 110.0); ("k2", row 40.0); ("new", row 5.0) ] in
  let ds = Bench_compare.deltas ~baseline ~current in
  Alcotest.(check int) "only paired kernels" 2 (List.length ds);
  let d1 = List.find (fun d -> d.Bench_compare.kernel = "k1") ds in
  Alcotest.(check (float 1e-9)) "k1 +10%" 10.0 d1.Bench_compare.pct;
  let d2 = List.find (fun d -> d.Bench_compare.kernel = "k2") ds in
  Alcotest.(check (float 1e-9)) "k2 -20%" (-20.0) d2.Bench_compare.pct

let test_deltas_skip_nan () =
  let baseline = [ ("k", row Float.nan); ("z", row 0.0) ] in
  let current = [ ("k", row 10.0); ("z", row 10.0) ] in
  Alcotest.(check int) "nan and zero baselines skipped" 0
    (List.length (Bench_compare.deltas ~baseline ~current))

let test_worst () =
  let baseline = [ ("k1", row 100.0); ("k2", row 100.0) ] in
  let current = [ ("k1", row 130.0); ("k2", row 90.0) ] in
  match Bench_compare.worst (Bench_compare.deltas ~baseline ~current) with
  | Some d ->
    Alcotest.(check string) "worst kernel" "k1" d.Bench_compare.kernel;
    Alcotest.(check (float 1e-9)) "worst pct" 30.0 d.Bench_compare.pct
  | None -> Alcotest.fail "expected a worst delta"

(* The exit-code contract: 0 without a threshold or within it, 3 past it.
   This is exactly what `bench --compare --fail-above` returns to CI. *)
let test_exit_code () =
  let baseline = [ ("k1", row 100.0); ("k2", row 100.0) ] in
  let current = [ ("k1", row 104.9); ("k2", row 95.0) ] in
  let ds = Bench_compare.deltas ~baseline ~current in
  Alcotest.(check int) "no threshold -> 0" 0 (Bench_compare.exit_code ~fail_above:None ds);
  Alcotest.(check int) "within 5%% -> 0" 0 (Bench_compare.exit_code ~fail_above:(Some 5.0) ds);
  Alcotest.(check int) "past 1%% -> 3" 3 (Bench_compare.exit_code ~fail_above:(Some 1.0) ds);
  let regressed = Bench_compare.deltas ~baseline ~current:[ ("k1", row 150.0) ] in
  Alcotest.(check int) "50%% past 10%% -> 3" 3
    (Bench_compare.exit_code ~fail_above:(Some 10.0) regressed);
  (* An improvement is never a regression, whatever the threshold. *)
  let improved = Bench_compare.deltas ~baseline ~current:[ ("k1", row 10.0) ] in
  Alcotest.(check int) "faster -> 0" 0 (Bench_compare.exit_code ~fail_above:(Some 0.0) improved)

(* Kernels present in only one file: reported by [unpaired], never gated.
   A baseline recorded before a kernel existed (an early one from commit
   1121056 vs a run that now has load/* kernels) must not fail
   --fail-above. *)
let test_unpaired_reported () =
  let baseline = [ ("k1", row 100.0); ("gone", row 10.0); ("also-gone", row 1.0) ] in
  let current = [ ("k1", row 100.0); ("brand-new", row 5.0) ] in
  let only_base, only_cur = Bench_compare.unpaired ~baseline ~current in
  Alcotest.(check (list string)) "baseline-only, input order" [ "gone"; "also-gone" ] only_base;
  Alcotest.(check (list string)) "current-only" [ "brand-new" ] only_cur

let test_unpaired_never_gates () =
  (* Wildly slow numbers on one-sided kernels carry no regression signal:
     the gate must stay green even at a 0% threshold. *)
  let baseline = [ ("k1", row 100.0); ("gone", row 1.0) ] in
  let current = [ ("k1", row 100.0); ("brand-new", row 1_000_000.0) ] in
  let ds = Bench_compare.deltas ~baseline ~current in
  Alcotest.(check int) "one paired delta" 1 (List.length ds);
  Alcotest.(check int) "unpaired kernels don't trip the gate" 0
    (Bench_compare.exit_code ~fail_above:(Some 0.0) ds)

let test_unpaired_empty_on_match () =
  let rows = [ ("k1", row 100.0); ("k2", row 50.0) ] in
  let only_base, only_cur = Bench_compare.unpaired ~baseline:rows ~current:rows in
  Alcotest.(check (list string)) "no baseline-only" [] only_base;
  Alcotest.(check (list string)) "no current-only" [] only_cur

(* v2 schema round-trip: memory metrics parse when present and stay NaN
   when the file predates them. *)
let sample_json_v2 =
  {|{
  "schema": "octopus-bench/v2",
  "kernels": {
    "a/fast": { "ns_per_op": 100.0, "minor_words_per_op": 12.0, "major_words_per_op": 3.5 },
    "scale/world-10k": { "ns_per_op": null, "minor_words_per_op": null, "major_words_per_op": 900.0, "peak_heap_mb": 64.0, "bytes_per_node": 512.0 }
  }
}|}

let test_parse_v2 () =
  let rows = Bench_compare.parse ~path:"v2" sample_json_v2 in
  let a = List.assoc "a/fast" rows in
  Alcotest.(check (float 1e-9)) "major" 3.5 a.Bench_compare.major_words_per_op;
  Alcotest.(check bool) "no peak on micro kernel" true (Float.is_nan a.Bench_compare.peak_heap_mb);
  let s = List.assoc "scale/world-10k" rows in
  Alcotest.(check (float 1e-9)) "bytes/node" 512.0 s.Bench_compare.bytes_per_node;
  Alcotest.(check (float 1e-9)) "peak MB" 64.0 s.Bench_compare.peak_heap_mb;
  (* v1 files parse with the memory metrics absent, not failing. *)
  let v1 = Bench_compare.parse ~path:"v1" sample_json in
  let b = List.assoc "b/slow" v1 in
  Alcotest.(check bool) "v1 major is nan" true (Float.is_nan b.Bench_compare.major_words_per_op)

let test_mem_deltas () =
  let baseline =
    [ ("scale", full Float.nan ~major:1000.0 ~peak:50.0 ~bpn:500.0); ("k", row 100.0) ]
  in
  let current =
    [ ("scale", full Float.nan ~major:1100.0 ~peak:50.0 ~bpn:400.0); ("k", row 100.0) ]
  in
  let mds = Bench_compare.mem_deltas ~baseline ~current in
  (* k carries no memory metrics -> 0 deltas; scale pairs all three. *)
  Alcotest.(check int) "three memory deltas" 3 (List.length mds);
  let major = List.find (fun d -> d.Bench_compare.m_metric = "major_words_per_op") mds in
  Alcotest.(check (float 1e-9)) "major +10%" 10.0 major.Bench_compare.m_pct;
  let bpn = List.find (fun d -> d.Bench_compare.m_metric = "bytes_per_node") mds in
  Alcotest.(check (float 1e-9)) "bytes/node -20%" (-20.0) bpn.Bench_compare.m_pct;
  Alcotest.(check int) "only major regresses past 5%" 1
    (List.length (Bench_compare.mem_regressions ~fail_above:5.0 mds));
  (* A v1 baseline (all-NaN memory) produces no memory deltas at all. *)
  Alcotest.(check int) "v1 baseline -> no mem deltas" 0
    (List.length (Bench_compare.mem_deltas ~baseline:[ ("scale", row 1.0) ] ~current))

let test_threshold_boundary () =
  let ds = Bench_compare.deltas ~baseline:[ ("k", row 100.0) ] ~current:[ ("k", row 110.0) ] in
  (* strictly-above semantics: exactly at the threshold passes *)
  Alcotest.(check int) "at threshold -> 0" 0 (Bench_compare.exit_code ~fail_above:(Some 10.0) ds);
  Alcotest.(check int) "just below threshold -> 3" 3
    (Bench_compare.exit_code ~fail_above:(Some 9.999) ds)

let () =
  Alcotest.run "bench_compare"
    [
      ( "parse",
        [
          Alcotest.test_case "schema round-trip" `Quick test_parse;
          Alcotest.test_case "v2 schema round-trip" `Quick test_parse_v2;
          Alcotest.test_case "malformed input" `Quick test_parse_malformed;
        ] );
      ( "gate",
        [
          Alcotest.test_case "delta pairing" `Quick test_deltas_pairing;
          Alcotest.test_case "nan/zero skipped" `Quick test_deltas_skip_nan;
          Alcotest.test_case "worst delta" `Quick test_worst;
          Alcotest.test_case "memory deltas" `Quick test_mem_deltas;
          Alcotest.test_case "exit codes" `Quick test_exit_code;
          Alcotest.test_case "threshold boundary" `Quick test_threshold_boundary;
          Alcotest.test_case "unpaired reported" `Quick test_unpaired_reported;
          Alcotest.test_case "unpaired never gates" `Quick test_unpaired_never_gates;
          Alcotest.test_case "unpaired empty on match" `Quick test_unpaired_empty_on_match;
        ] );
    ]
