let run ?(n = 80) ?(duration = 120.0) ?(seed = 7) ?(revoke_one = false) () =
  let probe, attach = Regime.start ~capacity:(1 lsl 18) () in
  let spec = Scenario.on_init (Scenario.make ~seed ~n ~duration ()) attach in
  let spec =
    if revoke_one then
      Scenario.at spec ~time:(duration /. 2.0) (fun w ->
          (* A legitimate mid-run ejection: an honest node revoked by fiat
             to exercise the revoked-identity invariant. *)
          Octopus.World.revoke w (n / 2))
    else spec
  in
  ignore (Scenario.run spec);
  Regime.finish probe

let regimes =
  [
    {
      Regime.suite = "trace";
      name = "honest";
      floor = None;
      min_n = 8;
      default_n = 80;
      default_duration = 120.0;
      body = (fun p -> run ~n:p.Regime.n ~duration:p.Regime.duration ~seed:p.Regime.seed ());
    };
  ]
