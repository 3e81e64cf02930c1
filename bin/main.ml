(* octopus-repro: command-line driver regenerating every table and figure
   of the paper's evaluation. Each subcommand prints the measured rows
   next to the paper's reference values (see EXPERIMENTS.md). *)

open Cmdliner
open Octo_experiments

let p = print_string
let pl = print_endline

(* ------------------------------------------------------------------ *)
(* security *)

let security_cmd =
  let run figs n duration seed rate =
    let wants name = figs = [] || List.mem name figs in
    if wants "fig3a" || wants "fig3b" || wants "fig7b" then begin
      let r = Security.fig3a ~n ~duration ~seed ~rate () in
      if wants "fig3a" then begin
        pl "== Figure 3(a): lookup bias attack, remaining malicious fraction ==";
        p (Report.security_run ~label:(Printf.sprintf "attack rate = %.0f%%" (rate *. 100.)) r)
      end;
      if wants "fig3b" then begin
        pl "== Figure 3(b): lookups vs biased lookups (cumulative) ==";
        p (Report.fig3b r)
      end;
      if wants "fig7b" then begin
        pl "== Figure 7(b): CA workload, lookup bias attack ==";
        p (Report.fig7b r)
      end
    end;
    if wants "fig3c" then begin
      let r = Security.fig3c ~n ~duration ~seed ~rate () in
      pl "== Figure 3(c): fingertable manipulation attack ==";
      p (Report.security_run ~label:(Printf.sprintf "attack rate = %.0f%%" (rate *. 100.)) r)
    end;
    if wants "fig4" then begin
      let r = Security.fig4 ~n ~duration ~seed ~rate () in
      pl "== Figure 4: fingertable pollution attack ==";
      p (Report.security_run ~label:(Printf.sprintf "attack rate = %.0f%%" (rate *. 100.)) r)
    end;
    if wants "fig9" then begin
      let r = Security.fig9 ~n ~duration ~seed ~rate () in
      pl "== Figure 9: selective DoS attack ==";
      p (Report.security_run ~label:(Printf.sprintf "attack rate = %.0f%%" (rate *. 100.)) r)
    end;
    if wants "table2" then begin
      pl "== Table 2: identification accuracy under churn ==";
      p (Report.table2 (Security.table2 ~n ~duration ~seed ()))
    end
  in
  let figs =
    Arg.(
      value
      & pos_all (enum [ ("fig3a", "fig3a"); ("fig3b", "fig3b"); ("fig3c", "fig3c");
                        ("fig4", "fig4"); ("fig7b", "fig7b"); ("fig9", "fig9");
                        ("table2", "table2") ]) []
      & info [] ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate (default: all).")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Network size.") in
  let duration =
    Arg.(value & opt float 1000.0 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let rate =
    Arg.(value & opt float 1.0 & info [ "rate" ] ~doc:"Attack rate (0..1).")
  in
  Cmd.v
    (Cmd.info "security" ~doc:"Figures 3, 4, 7b, 9 and Table 2 (event simulation)")
    Term.(const run $ figs $ n $ duration $ seed $ rate)

(* ------------------------------------------------------------------ *)
(* anonymity *)

let anonymity_cmd =
  let run which n trials seed =
    let wants name = which = [] || List.mem name which in
    if wants "fig5a" then begin
      pl "== Figure 5(a): H(I) of Octopus ==";
      p (Report.fig_curves (Anonymity_exp.fig5a ~n ~trials ~seed ()))
    end;
    if wants "fig5b" then begin
      pl "== Figure 5(b): H(I) comparison (paper: NISAN/Torsk leak ~3.3 bits, ~6x Octopus) ==";
      p (Report.fig_curves (Anonymity_exp.fig5b ~n ~trials ~seed ()))
    end;
    if wants "fig5c" then begin
      pl "== Figure 5(c): H(T) of Octopus (paper: 0.82 bits leaked at f=0.2, 6 dummies) ==";
      p (Report.fig_curves (Anonymity_exp.fig5c ~n ~trials ~seed ()))
    end;
    if wants "fig6" then begin
      pl "== Figure 6: H(T) comparison (paper: NISAN 11.3, Torsk 3.4 bits leaked) ==";
      p (Report.fig_curves (Anonymity_exp.fig6 ~n ~trials ~seed ()))
    end
  in
  let which =
    Arg.(
      value
      & pos_all (enum [ ("fig5a", "fig5a"); ("fig5b", "fig5b"); ("fig5c", "fig5c");
                        ("fig6", "fig6") ]) []
      & info [] ~docv:"ARTIFACT" ~doc:"Artifacts (default: all).")
  in
  let n = Arg.(value & opt int 100_000 & info [ "n" ] ~doc:"Network size.") in
  let trials = Arg.(value & opt int 300 & info [ "trials" ] ~doc:"Monte-Carlo trials.") in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "anonymity" ~doc:"Figures 5(a)-(c) and 6 (probabilistic modelling)")
    Term.(const run $ which $ n $ trials $ seed)

(* ------------------------------------------------------------------ *)
(* timing (Table 1) *)

let timing_cmd =
  let run trials seed =
    pl "== Table 1: end-to-end timing analysis error rate ==";
    p (Report.table1 (Anonymity_exp.table1 ~trials ~seed ()))
  in
  let trials = Arg.(value & opt int 1500 & info [ "trials" ] ~doc:"Trials per cell.") in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "timing" ~doc:"Table 1: timing-analysis attack simulation")
    Term.(const run $ trials $ seed)

(* ------------------------------------------------------------------ *)
(* efficiency (Table 3, Figure 7a) *)

let efficiency_cmd =
  let run cdf n lookups seed =
    let octopus = Efficiency.octopus_latency ~n ~lookups ~seed () in
    let chord = Efficiency.chord_latency ~n ~lookups ~seed () in
    let halo = Efficiency.halo_latency ~n ~lookups ~seed () in
    pl "== Table 3: lookup latency and bandwidth ==";
    p (Report.table3 ~octopus ~chord ~halo ~bandwidth:(Efficiency.bandwidth_table ()));
    if cdf then begin
      pl "== Figure 7(a): lookup latency CDF ==";
      p (Report.fig7a ~octopus ~chord ~halo)
    end
  in
  let cdf = Arg.(value & flag & info [ "cdf" ] ~doc:"Also print the Figure 7(a) CDFs.") in
  let n = Arg.(value & opt int 207 & info [ "n" ] ~doc:"Nodes (paper: 207).") in
  let lookups = Arg.(value & opt int 600 & info [ "lookups" ] ~doc:"Measured lookups.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "efficiency" ~doc:"Table 3 and Figure 7(a) (simulated WAN)")
    Term.(const run $ cdf $ n $ lookups $ seed)

(* ------------------------------------------------------------------ *)
(* ablation *)

let ablation_cmd =
  let run n duration trials seed =
    pl "== Ablations of DESIGN.md's flagged choices ==";
    p
      (Ablation.render
         ~dummies:(Ablation.dummies ~trials ~seed ())
         ~paths:(Ablation.paths ~trials ~seed ())
         ~proofs:(Ablation.proof_queue ~n ~duration ~seed ())
         ~bounds:(Ablation.bound_checking ~n ~seed ()))
  in
  let n = Arg.(value & opt int 300 & info [ "n" ] ~doc:"Network size for sim ablations.") in
  let duration = Arg.(value & opt float 400.0 & info [ "duration" ] ~doc:"Simulated seconds.") in
  let trials = Arg.(value & opt int 250 & info [ "trials" ] ~doc:"Monte-Carlo trials.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Dummies, path layout, proof queue, bound checking")
    Term.(const run $ n $ duration $ trials $ seed)

(* ------------------------------------------------------------------ *)
(* all *)

let all_cmd =
  let run () =
    pl "Regenerating every table and figure (reduced scales; see --help of";
    pl "each subcommand for full-scale runs).\n";
    pl "== Table 1 ==";
    p (Report.table1 (Anonymity_exp.table1 ~trials:800 ()));
    pl "\n== Figures 3a/3b/7b (lookup bias) ==";
    let r = Security.fig3a ~n:500 ~duration:600.0 ~rate:1.0 () in
    p (Report.security_run ~label:"bias, rate 100%" r);
    p (Report.fig3b r);
    p (Report.fig7b r);
    pl "\n== Figure 3c (manipulation) ==";
    p (Report.security_run ~label:"manipulation, rate 100%"
         (Security.fig3c ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Figure 4 (pollution) ==";
    p (Report.security_run ~label:"pollution, rate 100%"
         (Security.fig4 ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Figure 9 (selective DoS) ==";
    p (Report.security_run ~label:"selective DoS, rate 100%"
         (Security.fig9 ~n:500 ~duration:600.0 ~rate:1.0 ()));
    pl "\n== Table 2 ==";
    p (Report.table2 (Security.table2 ~n:500 ~duration:600.0 ()));
    pl "\n== Figures 5a/5b/5c/6 ==";
    p (Report.fig_curves (Anonymity_exp.fig5a ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig5b ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig5c ~n:50_000 ~trials:200 ()));
    p (Report.fig_curves (Anonymity_exp.fig6 ~n:50_000 ~trials:200 ()));
    pl "\n== Table 3 / Figure 7a ==";
    let octopus = Efficiency.octopus_latency ~lookups:300 () in
    let chord = Efficiency.chord_latency ~lookups:300 () in
    let halo = Efficiency.halo_latency ~lookups:300 () in
    p (Report.table3 ~octopus ~chord ~halo ~bandwidth:(Efficiency.bandwidth_table ()));
    p (Report.fig7a ~octopus ~chord ~halo)
  in
  Cmd.v (Cmd.info "all" ~doc:"Every artifact at reduced scale") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run: the gated regimes (trace, chaos, attack, load, scale) *)

let run_cmd =
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("octopus-repro: " ^ msg); exit 2) fmt in
  let open_out_or_fail what path =
    try open_out path with Sys_error e -> fail "cannot write %s: %s" what e
  in
  let run selected n duration seed queries cache chaos trace_file json_file check misroute =
    let regimes = List.concat selected in
    if queries < 1 then fail "--queries must be >= 1";
    let params (r : Regime.t) =
      {
        Regime.n = Option.value n ~default:r.Regime.default_n;
        duration = Option.value duration ~default:r.Regime.default_duration;
        seed;
        queries;
        cache;
        chaos;
      }
    in
    List.iter
      (fun (r : Regime.t) ->
        let p = params r in
        if p.Regime.n < r.Regime.min_n then
          fail "%s needs -n >= %d" (Regime.id r) r.Regime.min_n)
      regimes;
    let json_out = Option.map (fun path -> (path, open_out_or_fail "json report" path)) json_file in
    let many = List.length regimes > 1 in
    let runs =
      List.map
        (fun (r : Regime.t) ->
          let id = Regime.id r in
          (* One file per regime when several run in one invocation; open
             it before simulating so a bad path fails fast. *)
          let trace_out =
            Option.map
              (fun path ->
                let path = if many then path ^ "." ^ r.Regime.suite ^ "." ^ r.Regime.name else path in
                (path, open_out_or_fail "trace file" path))
              trace_file
          in
          if misroute then
            Octopus.Olookup.set_test_misroute
              (Some (fun (peer : Octopus.Olookup.Peer.t) ->
                   { peer with Octopus.Olookup.Peer.id = peer.Octopus.Olookup.Peer.id + 1 }));
          let p = params r in
          let o = r.Regime.body p in
          Octopus.Olookup.set_test_misroute None;
          print_string (Regime.render ~check r o);
          Option.iter
            (fun (path, oc) ->
              Octo_sim.Trace.dump_jsonl o.Regime.trace oc;
              close_out oc;
              Printf.printf "%s trace written to %s\n" id path)
            trace_out;
          (r, p, o))
        regimes
    in
    Option.iter
      (fun (path, oc) ->
        output_string oc (Regime.json runs);
        close_out oc;
        Printf.printf "run report written to %s\n" path)
      json_out;
    if
      List.exists
        (fun (r, _, o) ->
          (not (Regime.passed r o)) || (check && not (Octopus.Invariant.ok o.Regime.checker)))
        runs
    then exit 1
  in
  let selected =
    let parse s =
      match Registry.select s with
      | Some rs -> Ok rs
      | None -> Error (`Msg (Printf.sprintf "unknown suite or regime %S" s))
    in
    let print ppf rs = Format.pp_print_string ppf (String.concat " " (List.map Regime.id rs)) in
    Arg.(non_empty & pos_all (conv (parse, print)) []
         & info [] ~docv:"SUITE[/REGIME]"
             ~doc:"Regimes to run: a whole suite (trace, chaos, attack, load, scale) or one \
                   SUITE/REGIME.")
  in
  let n =
    Arg.(value & opt (some int) None
         & info [ "n" ] ~doc:"Network size (default: each regime's own).")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration" ]
             ~doc:"Simulated seconds (default: each regime's own; load derives it from --queries).")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let queries =
    Arg.(value & opt int 2000 & info [ "queries" ] ~doc:"Open-loop arrivals to generate (load).")
  in
  let cache =
    Arg.(value & flag & info [ "cache" ]
           ~doc:"Enable the hot-key result cache (load, and attack/eclipse, whose \
                 conviction-driven revocations must flush it).")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Overlay the dup-reorder fault plan plus graceful-degradation knobs (load).")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write each regime's event stream as JSON Lines; with several regimes in \
                 one invocation $(docv) gets a .SUITE.REGIME suffix per regime.")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the octopus-run/v1 JSON report of every regime run to $(docv).")
  in
  let check =
    Arg.(value & flag & info [ "check-invariants" ]
           ~doc:"Report the online invariant checker (including the end-of-run ring \
                 convergence and eclipse watch); exit 1 on any violation.")
  in
  let misroute =
    Arg.(value & flag & info [ "inject-misroute" ]
           ~doc:"Deliberately corrupt lookup results (test hook) — the checker must catch it.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Gated regimes: the traced honest scenario, fault injection (chaos), active \
             adversaries (attack), open-loop traffic (load) and the population-scale ring \
             (scale). Exit 1 when a regime misses its floor or a pass condition, or, with \
             --check-invariants, on any violation; exit 2 on bad arguments.")
    Term.(const run $ selected $ n $ duration $ seed $ queries $ cache $ chaos $ trace_file
          $ json_file $ check $ misroute)

let () =
  let doc = "Octopus: anonymous and secure DHT lookup — paper reproduction harness" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "octopus-repro" ~doc)
          [ security_cmd; anonymity_cmd; timing_cmd; efficiency_cmd; ablation_cmd; run_cmd;
            all_cmd ]))
