module Fault = Octo_sim.Fault

type regime = Partition_heal | Corruption | Dup_reorder | Crash_burst | Regional_outage

(* Every window is phrased as a fraction of the run so the shape survives
   a --duration override: faults start after bootstrap has settled and
   heal with enough tail left for re-convergence. *)
let plan_for regime ~n ~duration : Fault.plan =
  let d = duration in
  match regime with
  | Partition_heal ->
    [ Fault.Partition
        {
          groups = [ Fault.Range { lo = 0; hi = (n / 4) - 1 } ];
          from_ = 0.25 *. d;
          heal_at = 0.55 *. d;
        };
    ]
  | Corruption -> [ Fault.Corrupt { prob = 0.08; from_ = 0.2 *. d; until = 0.7 *. d } ]
  | Dup_reorder ->
    [ Fault.Duplicate { prob = 0.08; spread = 0.4; from_ = 0.2 *. d; until = 0.7 *. d };
      Fault.Reorder { prob = 0.25; max_extra = 0.5; from_ = 0.2 *. d; until = 0.7 *. d };
    ]
  | Crash_burst ->
    [ Fault.Crash_burst
        {
          at = 0.3 *. d;
          victims = Fault.Range { lo = 0; hi = n - 1 };
          count = n / 8;
          recover_after = 0.2 *. d;
        };
    ]
  | Regional_outage ->
    [ Fault.Regional_outage
        { epicenter = 0; radius = 0.04; from_ = 0.3 *. d; until = 0.55 *. d };
    ]

let with_faults regime ~n ~duration (cfg : Octopus.Config.t) =
  {
    cfg with
    Octopus.Config.fault_plan = Some (plan_for regime ~n ~duration);
    anon_path_retries = 2;
    ring_repair = true;
  }

let run regime { Regime.n; duration; seed; _ } =
  let probe, attach = Regime.start ~capacity:(1 lsl 18) () in
  let cfg =
    with_faults regime ~n ~duration { Octopus.Config.default with lookup_every = 20.0 }
  in
  let sc = Scenario.run (Scenario.on_init (Scenario.make ~seed ~cfg ~n ~duration ()) attach) in
  let o = Regime.finish probe in
  let counter f = match Scenario.fault sc with None -> 0 | Some t -> f t in
  {
    o with
    Regime.fields =
      [
        ("drops", Regime.Int (counter Fault.drops));
        ("corruptions", Regime.Int (counter Fault.corruptions));
        ("duplicates", Regime.Int (counter Fault.duplicates));
        ("reorders", Regime.Int (counter Fault.reorders));
        ("crashes", Regime.Int (counter Fault.crashes));
      ];
  }

(* Success-rate floors per regime, documented in EXPERIMENTS.md. They are
   deliberately below the observed rates (measured at the default n=60,
   duration=240, seeds 7 and 11) so seed jitter does not flake CI, but
   high enough that a degradation-path regression — circuits not
   rebuilding, the ring failing to re-knit — trips them. *)
let regimes =
  List.map
    (fun (regime, name, floor) ->
      {
        Regime.suite = "chaos";
        name;
        floor = Some floor;
        min_n = 16;
        default_n = 60;
        default_duration = 240.0;
        body = run regime;
      })
    [
      (Partition_heal, "partition", 0.50);
      (Corruption, "corrupt", 0.60);
      (Dup_reorder, "dup-reorder", 0.70);
      (Crash_burst, "crash", 0.55);
      (Regional_outage, "outage", 0.50);
    ]
