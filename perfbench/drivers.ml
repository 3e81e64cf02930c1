(* The four workload drivers.

   Each driver re-drives a preset of [octo_experiments] from the
   library's public constructors, in the preset's own construction order,
   so that the benchmark can time set-up and the measured phase
   separately and, in a traced repetition, subscribe next to the preset's
   own trace sink and checker. [preset] runs the preset itself; the
   parity check compares the two at one seed and size. *)

module Engine = Octo_sim.Engine
module Rng = Octo_sim.Rng
module Trace = Octo_sim.Trace
module Metrics = Octo_sim.Metrics
module Net = Octo_sim.Net
module Latency = Octo_sim.Latency
module Churn = Octo_sim.Churn
module Peer = Octo_chord.Peer
module Rtable = Octo_chord.Rtable
module World = Octopus.World
module Config = Octopus.Config
module Invariant = Octopus.Invariant
module Olookup = Octopus.Olookup
module Workload = Octo_experiments.Workload
module Scenario = Octo_experiments.Scenario
module Scale = Octo_experiments.Scale
module Security = Octo_experiments.Security
module Anonymity_exp = Octo_experiments.Anonymity_exp
module Ring_model = Octo_anonymity.Ring_model
module Octopus_anon = Octo_anonymity.Octopus_anon
module Baseline_anon = Octo_anonymity.Baseline_anon

(* Workload sizes. Each repetition runs one fixed-size instance. *)
module Size = struct
  let lookup_n = 128
  let lookup_queries = 2000
  let scale_n = 1200
  let scale_duration = 180.0
  let scale_lookups = 1000
  let attack_n = 120
  let attack_duration = 120.0
  let attack_fraction = 0.2
  let attack_rate = 1.0
  let model_n = 100_000
  let model_trials = 1000
  let model_fs = [ 0.05; 0.1; 0.15; 0.2 ]
end

type rep = {
  setup_s : float;
  run_s : float;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  det : (string * float) list;
      (** repeats exactly at one seed; names starting with [alloc.] only
          across untraced repetitions *)
  outcomes : (string * float) list;  (** simulated outcomes, also deterministic *)
  layers : (string * float) list;
}

let f = float_of_int
let ratio a b = if b = 0 then 0.0 else f a /. f b

(* [q]-quantile of a sample with the [Metrics] rank convention:
   element [floor (q * (len - 1))] of the sorted values. *)
let quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  if Array.length a = 0 then 0.0
  else a.(int_of_float (Float.of_int (Array.length a - 1) *. q))

(* p95 over nodes of (tx + rx) bytes per simulated second. *)
let bw_p95 w ~n ~duration =
  let net = w.World.net in
  quantile (List.init n (fun a -> f (Net.tx_bytes net a + Net.rx_bytes net a) /. duration)) 0.95

let tx_total w ~n =
  let s = ref 0 in
  for a = 0 to n - 1 do
    s := !s + Net.tx_bytes w.World.net a
  done;
  !s

let gc_layers (g : Probe.gc) ~ops =
  [
    ("gc.minor_words_per_op", g.Probe.minor_words /. Float.max 1.0 (f ops));
    ("gc.promoted_words_per_op", g.Probe.promoted_words /. Float.max 1.0 (f ops));
    ("gc.major_collections", f g.Probe.major_collections);
  ]

let net_layers w ~n ~lookups =
  let delivered = Net.messages_delivered w.World.net in
  [
    ("net.delivered", f delivered);
    ("net.delivered_per_lookup", ratio delivered lookups);
    ("net.bytes_per_lookup", ratio (tx_total w ~n) lookups);
  ]

let engine_layers engine ~run_s =
  let events = Engine.events_processed engine in
  [ ("engine.events", f events); ("engine.events_per_s", f events /. run_s) ]

let trace_layers trace engine =
  [
    ("trace.events", f (Trace.seen trace));
    ("trace.events_per_event", ratio (Trace.seen trace) (Engine.events_processed engine));
  ]

(* Per-call cost of the signing, verification, bound-check and onion
   entry points, timed on the workload's own world after its run. Every
   call works on a fresh document, so the verification cache misses. *)
let crypto_layers w =
  let honest =
    List.filter
      (fun a ->
        let nd = World.node w a in
        nd.World.alive && (not nd.World.revoked) && not nd.World.malicious)
      (List.init (World.n_nodes w) Fun.id)
  in
  let sample = List.filteri (fun i _ -> i < 128) honest in
  let nodes = List.map (World.node w) sample in
  let calls = List.length nodes in
  let per_call s = if calls = 0 then 0.0 else s *. 1e9 /. f calls in
  let tables, sign_s = Probe.timed (fun () -> List.map (World.honest_table w) nodes) in
  let tables_ok, verify_s = Probe.timed (fun () -> List.for_all (World.verify_table w) tables) in
  let lists = List.map (fun nd -> World.honest_list w nd Octopus.Types.Succ_list) nodes in
  let lists_ok, verify_list_s = Probe.timed (fun () -> List.for_all (World.verify_list w) lists) in
  let (), sanitize_s =
    Probe.timed (fun () -> List.iter2 (fun nd st -> ignore (World.sanitize_table w nd st)) nodes tables)
  in
  let rng = Rng.create ~seed:1 in
  let keys = List.init 3 (fun _ -> Octo_crypto.Onion.gen_key rng) in
  let payload = Bytes.make 256 'q' in
  let rounds = 1000 in
  let onion_ok = ref true in
  let (), onion_s =
    Probe.timed (fun () ->
        for _ = 1 to rounds do
          match Octo_crypto.Onion.peel_all ~keys (Octo_crypto.Onion.wrap ~rng ~keys payload) with
          | Some p when Bytes.equal p payload -> ()
          | Some _ | None -> onion_ok := false
        done)
  in
  ( [
      ("crypto.onion_wrap_peel_ns", onion_s *. 1e9 /. f rounds);
      ("crypto.sign_table_ns", per_call sign_s);
      ("crypto.verify_table_ns", per_call verify_s);
      ("crypto.verify_list_ns", per_call verify_list_s);
      ("chord.sanitize_table_ns", per_call sanitize_s);
    ],
    tables_ok && lists_ok && !onion_ok )

(* Layer figures only a traced repetition produces. *)
let traced_layers probe w ~run_s =
  match probe with
  | None -> ([], [])
  | Some p ->
    let crypto, ok = crypto_layers w in
    (Probe.metrics p ~run_s @ crypto, [ ("crypto_roundtrips_verify", ok) ])

(* ------------------------------------------------------------------ *)
(* anon-lookup: the [load steady] preset ([Workload.run ~regime:Steady]) *)

(* The preset's timeline constants (workload.ml): settle window before
   the first arrival, tail after the last, and the key catalog. *)
let warmup = 10.0
let tail = 30.0
let catalog_size = 512

let anon_lookup ~seed ~traced =
  let n = Size.lookup_n and queries = Size.lookup_queries in
  let t0 = Probe.now_ns () in
  let trace = Trace.create ~capacity:(1 lsl 18) () in
  Trace.install trace;
  let master = Rng.create ~seed:(seed + 0x0c70) in
  let arr_rng = Rng.split master in
  let key_rng = Rng.split master in
  let pick_rng = Rng.split master in
  let arr = Workload.Arrivals.create (Workload.process_of Workload.Steady) arr_rng in
  let times = Array.make queries 0.0 in
  let prev = ref 0.0 in
  for i = 0 to queries - 1 do
    let t = Workload.Arrivals.next arr ~now:!prev in
    times.(i) <- warmup +. t;
    prev := t
  done;
  let duration = times.(queries - 1) +. tail in
  let zipf = Workload.Zipf.create ~s:1.0 ~n:catalog_size () in
  let cfg = Config.default in
  let catalog = Array.init catalog_size (fun _ -> Rng.int key_rng (1 lsl cfg.Config.bits)) in
  let keys = Array.init queries (fun _ -> catalog.(Workload.Zipf.sample zipf key_rng)) in
  let gen_s = Probe.seconds_since t0 in
  let latency = Metrics.Sketch.create () in
  let issued = ref 0 and completed = ref 0 and converged = ref 0 in
  let wrong = ref 0 and skipped = ref 0 in
  let checker = ref None and probe = ref None in
  let pick_initiator w =
    let rec draw tries =
      if tries = 0 then None
      else begin
        let node = World.node w (Rng.int pick_rng n) in
        if node.World.alive && (not node.World.malicious) && not node.World.revoked then Some node
        else draw (tries - 1)
      end
    in
    draw 8
  in
  let issue w i =
    let key = keys.(i) in
    match pick_initiator w with
    | None -> incr skipped
    | Some node ->
      incr issued;
      let call () =
        Olookup.anonymous w node ~key (fun r ->
            incr completed;
            Metrics.Sketch.record latency r.Olookup.elapsed;
            match r.Olookup.owner with
            | Some o -> (
              match World.find_owner w ~key with
              | Some truth when Peer.equal o truth -> incr converged
              | Some _ | None -> incr wrong)
            | None -> ())
      in
      (match !probe with Some p -> Probe.time_issue p call | None -> call ())
  in
  let next_arrival = ref 0 in
  let rec schedule_next w =
    if !next_arrival < queries then begin
      let i = !next_arrival in
      incr next_arrival;
      ignore
        (Engine.schedule_at (World.engine w) ~time:times.(i) (fun () ->
             issue w i;
             schedule_next w))
    end
  in
  let spec = Scenario.make ~seed ~cfg ~n ~duration ~lookups:false ~checks:false () in
  let spec =
    Scenario.on_init spec (fun w ->
        let c = Invariant.create w in
        Invariant.attach c trace;
        checker := Some c;
        if traced then begin
          let p = Probe.create ~engine:(World.engine w) () in
          Probe.attach p trace;
          probe := Some p
        end)
  in
  let spec = Scenario.on_ready spec schedule_next in
  let sc = Scenario.build spec in
  let w = Scenario.world sc in
  let engine = Scenario.engine sc in
  let checker = Option.get !checker in
  let setup_s = Probe.seconds_since t0 in
  let gc0 = Probe.gc_now () in
  let t1 = Probe.now_ns () in
  Option.iter Probe.arm !probe;
  Engine.run engine ~until:duration;
  let t2 = Probe.now_ns () in
  Invariant.check_convergence checker;
  Invariant.finish checker;
  let check_s = Probe.seconds_since t2 in
  Trace.uninstall ();
  let run_s = Probe.seconds_since t1 in
  let gc = Probe.gc_since gc0 in
  let events = Engine.events_processed engine in
  let violations = List.length (Invariant.violations checker) in
  let p50 = Metrics.Sketch.quantile latency 0.5 and p99 = Metrics.Sketch.quantile latency 0.99 in
  let bw = bw_p95 w ~n ~duration in
  let traced_layers, traced_checks = traced_layers !probe w ~run_s in
  {
    setup_s;
    run_s;
    attempted = !issued;
    failed = !wrong;
    checks =
      [
        ("lookups_issued", !issued > 0);
        ("converged_owner_is_true_owner", !wrong = 0);
        ("invariants_ok", Invariant.ok checker);
      ]
      @ traced_checks;
    det =
      [
        ("issued", f !issued);
        ("completed", f !completed);
        ("converged", f !converged);
        ("wrong_owner", f !wrong);
        ("skipped", f !skipped);
        ("delivered", f (Net.messages_delivered w.World.net));
        ("events", f events);
        ("trace_events", f (Trace.seen trace));
        ("violations", f violations);
        ("alloc.run_minor_words", gc.Probe.minor_words);
      ];
    outcomes =
      [
        ("lookup_success", ratio !converged !issued);
        ("lookup_p50_sim_s", p50);
        ("lookup_p99_sim_s", p99);
        ("lookup_samples", f (Metrics.Sketch.count latency));
        ("bw_p95_Bps", bw);
      ];
    layers =
      engine_layers engine ~run_s
      @ net_layers w ~n ~lookups:!issued
      @ trace_layers trace engine
      @ gc_layers gc ~ops:events
      @ [
          ("invariant.check_s", check_s);
          ("workload.gen_s", gen_s);
          ("scenario.build_s", setup_s -. gen_s);
        ]
      @ traced_layers;
  }

(* ------------------------------------------------------------------ *)
(* churn-scale: the [scale] preset ([Scale.run]) *)

let churn_scale ~seed ~traced =
  let n = Size.scale_n and duration = Size.scale_duration and lookups = Size.scale_lookups in
  let stabilize_every = 20.0 and churn_mean = 3600.0 and churn_until = 0.45 in
  let t0 = Probe.now_ns () in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let cfg = Scale.scale_cfg ~stabilize_every in
  let trace = Trace.create ~capacity:(1 lsl 16) () in
  Trace.install trace;
  let engine = Engine.create ~seed () in
  let latency = Latency.create (Rng.split (Engine.rng engine)) ~n:(n + 1) in
  let w = World.create ~cfg ~pools:false engine latency ~n in
  Octopus.Serve.install w;
  let _ca = Octopus.Ca.create w in
  let grace =
    (4.0 *. stabilize_every)
    +. cfg.Config.table_freshness
    +. (2.0 *. cfg.Config.query_deadline)
    +. 2.0
  in
  let checker = Invariant.create ~grace w in
  Invariant.attach checker trace;
  let lookups_done = ref 0 and lookups_converged = ref 0 in
  Trace.subscribe trace (fun ev ->
      match ev.Trace.data with
      | Trace.Lookup_done { owner_addr; _ } ->
        incr lookups_done;
        if owner_addr >= 0 then incr lookups_converged
      | _ -> ());
  let probe =
    if traced then begin
      let p = Probe.create ~engine () in
      Probe.attach p trace;
      Some p
    end
    else None
  in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  Octopus.Maintain.start
    ~opts:{ Octopus.Maintain.enable_lookups = false; churn_mean = None; enable_checks = false }
    w;
  (* Churn that stops at [churn_until], rejoin retries and the successor
     refresh of rejoined nodes, exactly as the preset drives them. *)
  let churn_rng = Rng.split w.World.rng in
  let heal_rng = Rng.split w.World.rng in
  let refresh (node : World.node) =
    if node.World.alive && not node.World.revoked then begin
      let key = Octo_chord.Id.add w.World.space node.World.peer.Peer.id 1 in
      let helper_addr = World.random_alive w heal_rng in
      if helper_addr <> node.World.addr then
        Olookup.direct w (World.node w helper_addr) ~key (fun r ->
            match r.Olookup.owner with
            | Some p
              when p.Peer.addr <> node.World.addr && node.World.alive && not node.World.revoked ->
              Rtable.merge_succs (World.rt node) [ p ]
            | Some _ | None -> ())
    end
  in
  let rejoined = ref [] in
  let rec rejoin (node : World.node) =
    if node.World.alive && not node.World.revoked then
      Octopus.Maintain.join w node (fun ok ->
          if ok then begin
            World.after w ~delay:stabilize_every (fun () -> refresh node);
            World.after w ~delay:(2.0 *. stabilize_every) (fun () -> refresh node)
          end
          else if node.World.alive then World.after w ~delay:stabilize_every (fun () -> rejoin node))
  in
  let churn =
    Churn.start engine churn_rng ~mean_lifetime:churn_mean
      ~rejoin_delay:cfg.Config.churn_rejoin_delay ~addrs:(List.init n Fun.id)
      ~on_leave:(fun addr ->
        let node = World.node w addr in
        if node.World.alive && not node.World.revoked then World.kill w addr)
      ~on_join:(fun addr ->
        let node = World.node w addr in
        if not node.World.revoked then begin
          World.revive w addr;
          rejoined := addr :: !rejoined;
          rejoin node
        end)
      ()
  in
  let stop_at = churn_until *. duration in
  ignore (Engine.schedule engine ~delay:stop_at (fun () -> Churn.stop churn));
  ignore
    (Engine.schedule engine
       ~delay:(stop_at +. (0.5 *. stabilize_every))
       (fun () ->
         List.iter
           (fun addr ->
             let node = World.node w addr in
             if node.World.alive && not node.World.revoked then
               if Option.is_none (Rtable.successor (World.rt node)) then rejoin node else refresh node)
           (List.sort_uniq Int.compare !rejoined)));
  let lookup_rng = Rng.split w.World.rng in
  for i = 0 to lookups - 1 do
    let at = duration *. (0.02 +. (0.93 *. f i /. f (max 1 lookups))) in
    ignore
      (Engine.schedule engine ~delay:at (fun () ->
           let node = World.node w (World.random_alive w lookup_rng) in
           if node.World.alive && not node.World.revoked then begin
             let key = Octo_chord.Id.random w.World.space lookup_rng in
             Olookup.direct w node ~key (fun _ -> ())
           end))
  done;
  let setup_s = Probe.seconds_since t0 in
  let gc0 = Probe.gc_now () in
  let t1 = Probe.now_ns () in
  Option.iter Probe.arm probe;
  Engine.run engine ~until:duration;
  let t2 = Probe.now_ns () in
  Invariant.check_convergence checker;
  Invariant.finish checker;
  let check_s = Probe.seconds_since t2 in
  Trace.uninstall ();
  let run_s = Probe.seconds_since t1 in
  let gc = Probe.gc_since gc0 in
  let events = Engine.events_processed engine in
  let violations = List.length (Invariant.violations checker) in
  let traced_layers, traced_checks = traced_layers probe w ~run_s in
  {
    setup_s;
    run_s;
    attempted = !lookups_done;
    failed = violations;
    checks =
      [ ("lookups_done", !lookups_done > 0); ("invariants_ok", Invariant.ok checker) ]
      @ traced_checks;
    det =
      [
        ("events", f events);
        ("trace_events", f (Trace.seen trace));
        ("lookups", f !lookups_done);
        ("lookups_converged", f !lookups_converged);
        ("departures", f (Churn.departures churn));
        ("violations", f violations);
        ("alloc.run_minor_words", gc.Probe.minor_words);
      ];
    outcomes =
      [ ("lookup_success", ratio !lookups_converged !lookups_done); ("bw_p95_Bps", bw_p95 w ~n ~duration) ];
    layers =
      engine_layers engine ~run_s
      @ net_layers w ~n ~lookups:!lookups_done
      @ trace_layers trace engine
      @ gc_layers gc ~ops:events
      @ [
          ("invariant.check_s", check_s);
          ("chord.bytes_per_node", f (live1 - live0) *. 8.0 /. f n);
        ]
      @ traced_layers;
  }

(* ------------------------------------------------------------------ *)
(* attack-defense: the lookup-bias run of Figure 3(a) ([Security.fig3a]) *)

let attack_defense ~seed ~traced =
  let n = Size.attack_n and duration = Size.attack_duration in
  let t0 = Probe.now_ns () in
  (* The preset installs no sink; only a traced repetition adds one. *)
  let trace = if traced then Some (Trace.create ()) else None in
  Option.iter Trace.install trace;
  let probe = ref None in
  let spec =
    Scenario.make ~seed ~cfg:Config.default ~fraction_malicious:Size.attack_fraction
      ~metrics_bucket:10.0
      ~attack:{ World.kind = World.Bias; rate = Size.attack_rate; consistency = 0.5 }
      ~lookups:true ~n ~duration ()
  in
  let spec =
    Scenario.on_init spec (fun w ->
        Option.iter
          (fun tr ->
            let p = Probe.create ~engine:(World.engine w) () in
            Probe.attach p tr;
            probe := Some p)
          trace)
  in
  let sc = Scenario.build spec in
  let w = Scenario.world sc in
  let engine = Scenario.engine sc in
  let setup_s = Probe.seconds_since t0 in
  let gc0 = Probe.gc_now () in
  let t1 = Probe.now_ns () in
  Option.iter Probe.arm !probe;
  Engine.run engine ~until:duration;
  let run_s = Probe.seconds_since t1 in
  let gc = Probe.gc_since gc0 in
  Option.iter (fun _ -> Trace.uninstall ()) trace;
  let m = World.metrics_snapshot w in
  let last rows = match List.rev rows with (_, v) :: _ -> v | [] -> 0.0 in
  let lookups = last m.World.ms_lookups_cum and biased = last m.World.ms_biased_cum in
  let ca_msgs = last m.World.ms_ca_msgs_cum in
  let reports = m.World.ms_reports and honest = m.World.ms_convicted_honest in
  let attackers_left = List.length (World.colluders w) in
  let events = Engine.events_processed engine in
  let traced_layers, traced_checks = traced_layers !probe w ~run_s in
  {
    setup_s;
    run_s;
    attempted = reports;
    failed = honest;
    (* A conviction of an honest node is a wrong verdict: it counts as a
       failed op and shows in [honest_convicted], but it is an outcome of
       the protocol under attack, not a check of this benchmark. *)
    checks = ("reports_filed", reports > 0) :: traced_checks;
    det =
      [
        ("events", f events);
        ("reports", f reports);
        ("convicted_honest", f honest);
        ("convicted_malicious", f m.World.ms_convicted_malicious);
        ("lookups", lookups);
        ("biased", biased);
        ("ca_msgs", ca_msgs);
        ("final_malicious_fraction", World.malicious_fraction w);
        ("attackers_left", f attackers_left);
        ("delivered", f (Net.messages_delivered w.World.net));
        ("alloc.run_minor_words", gc.Probe.minor_words);
      ];
    outcomes =
      [
        ("biased_share", if lookups > 0.0 then biased /. lookups else 0.0);
        ("honest_convicted", f honest);
        ("attackers_left", f attackers_left);
        ("bw_p95_Bps", bw_p95 w ~n ~duration);
      ];
    layers =
      engine_layers engine ~run_s
      @ net_layers w ~n ~lookups:(int_of_float lookups)
      @ gc_layers gc ~ops:events
      @ [ ("ca.msgs", ca_msgs); ("scenario.build_s", setup_s) ]
      @ traced_layers;
  }

(* ------------------------------------------------------------------ *)
(* anonymity-model: Figures 5(b) and 6, in the presets' call order *)

let leak_name scheme which fr = Printf.sprintf "leak.%s.%s.f%g" scheme which fr

let anonymity_model ~seed ~traced =
  let n = Size.model_n and trials = Size.model_trials in
  let t0 = Probe.now_ns () in
  let models = List.map (fun fr -> (fr, Ring_model.create ~n ~f:fr ~seed ())) Size.model_fs in
  let setup_s = Probe.seconds_since t0 in
  let probe = if traced then Some (Probe.create ()) else None in
  let oct = { Octopus_anon.default_params with trials; num_dummies = 6; alpha = 0.01 } in
  let base = { Baseline_anon.default_params with trials } in
  let octopus_s = ref 0.0 and baseline_s = ref 0.0 in
  let estimates = ref [] in
  (* One curve: every f in turn, as [Anonymity_exp.comparison] does; the
     models are shared, so the call order fixes every random draw. *)
  let curve scheme which timer est =
    List.iter
      (fun (fr, m) ->
        let (entropy, ideal, leak), s = Probe.timed (fun () -> est m) in
        timer := !timer +. s;
        Option.iter Probe.poll probe;
        estimates := (leak_name scheme which fr, fr, entropy, ideal, leak) :: !estimates)
      models
  in
  let octo which fn =
    curve "octopus" which octopus_s (fun m ->
        let r : Octopus_anon.result = fn m ~params:oct () in
        (r.Octopus_anon.entropy, r.Octopus_anon.ideal, r.Octopus_anon.leak))
  in
  let baseline name which fn =
    curve name which baseline_s (fun m ->
        let r : Baseline_anon.result = fn m ~params:base () in
        (r.Baseline_anon.entropy, r.Baseline_anon.ideal, r.Baseline_anon.leak))
  in
  let gc0 = Probe.gc_now () in
  let t1 = Probe.now_ns () in
  Option.iter Probe.arm probe;
  octo "I" (fun m ~params () -> Octopus_anon.initiator m ~params ());
  baseline "nisan" "I" (fun m ~params () -> Baseline_anon.nisan_initiator m ~params ());
  baseline "torsk" "I" (fun m ~params () -> Baseline_anon.torsk_initiator m ~params ());
  baseline "chord" "I" (fun m ~params () -> Baseline_anon.chord_initiator m ~params ());
  octo "T" (fun m ~params () -> Octopus_anon.target m ~params ());
  baseline "nisan" "T" (fun m ~params () -> Baseline_anon.nisan_target m ~params ());
  baseline "torsk" "T" (fun m ~params () -> Baseline_anon.torsk_target m ~params ());
  baseline "chord" "T" (fun m ~params () -> Baseline_anon.chord_target m ~params ());
  let run_s = Probe.seconds_since t1 in
  let gc = Probe.gc_since gc0 in
  let estimates = List.rev !estimates in
  let leak_at scheme which =
    List.fold_left
      (fun acc (name, _, _, _, leak) ->
        if String.equal name (leak_name scheme which 0.2) then leak else acc)
      nan estimates
  in
  let leak_hi = leak_at "octopus" "I" and leak_ht = leak_at "octopus" "T" in
  (* Monte-Carlo estimates may overshoot the ideal slightly (a small
     negative leak), never the entropy of a uniform pick over all n. *)
  let h_max = Float.log2 (f n) in
  let sane (_, _, entropy, _, leak) =
    Float.is_finite entropy && Float.is_finite leak && entropy >= 0.0 && entropy <= h_max
  in
  let bad = List.length (List.filter (fun e -> not (sane e)) estimates) in
  let paper = [ ("octopus_initiator_leak_below_1_bit", leak_hi < 1.0); ("octopus_target_leak_below_1_bit", leak_ht < 1.0) ] in
  let ops = List.length estimates * trials in
  let layers =
    match probe with Some p -> Probe.metrics p ~run_s | None -> []
  in
  {
    setup_s;
    run_s;
    attempted = List.length estimates;
    failed = bad + List.length (List.filter (fun (_, ok) -> not ok) paper);
    checks = (("estimates_sane", bad = 0) :: paper);
    det =
      List.map (fun (name, _, _, _, leak) -> (name, leak)) estimates
      @ [ ("alloc.run_minor_words", gc.Probe.minor_words) ];
    outcomes = [ ("leak_hi_bits", leak_hi); ("leak_ht_bits", leak_ht) ];
    layers =
      gc_layers gc ~ops
      @ [
          ("anon.ring_build_s", setup_s);
          ("anon.octopus_s", !octopus_s);
          ("anon.baseline_s", !baseline_s);
          ("anon.trials_per_s", f ops /. run_s);
        ]
      @ layers;
  }

(* ------------------------------------------------------------------ *)

let workloads = [ "anon-lookup"; "churn-scale"; "attack-defense"; "anonymity-model" ]

let run name ~seed ~traced =
  match name with
  | "anon-lookup" -> anon_lookup ~seed ~traced
  | "churn-scale" -> churn_scale ~seed ~traced
  | "attack-defense" -> attack_defense ~seed ~traced
  | "anonymity-model" -> anonymity_model ~seed ~traced
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The preset itself at the driver's seed and size: the deterministic
   counts the driver must reproduce, under the driver's names. *)
let preset name ~seed =
  match name with
  | "anon-lookup" ->
    let r =
      Workload.run ~n:Size.lookup_n ~seed ~queries:Size.lookup_queries ~regime:Workload.Steady ()
    in
    [
      ("issued", f r.Workload.issued);
      ("completed", f r.Workload.completed);
      ("converged", f r.Workload.converged);
      ("delivered", f r.Workload.delivered);
    ]
  | "churn-scale" ->
    let r =
      Scale.run ~n:Size.scale_n ~duration:Size.scale_duration ~seed ~lookups:Size.scale_lookups ()
    in
    [
      ("events", f r.Scale.events);
      ("trace_events", f r.Scale.trace_events);
      ("lookups", f r.Scale.lookups_done);
      ("departures", f r.Scale.departures);
    ]
  | "attack-defense" ->
    let r =
      Security.fig3a ~n:Size.attack_n ~duration:Size.attack_duration ~seed ~rate:Size.attack_rate ()
    in
    [
      ("reports", f r.Security.reports);
      ("final_malicious_fraction", r.Security.final_malicious_fraction);
    ]
  | "anonymity-model" ->
    let n = Size.model_n and trials = Size.model_trials and fs = Size.model_fs in
    let leaks which curves =
      List.concat_map
        (fun (c : Anonymity_exp.curve) ->
          List.map
            (fun (p : Anonymity_exp.point) ->
              (leak_name c.Anonymity_exp.label which p.Anonymity_exp.f, p.Anonymity_exp.leak))
            c.Anonymity_exp.points)
        curves
    in
    let i = Anonymity_exp.fig5b ~n ~trials ~seed ~fs () in
    let t = Anonymity_exp.fig6 ~n ~trials ~seed ~fs () in
    leaks "I" i @ leaks "T" t
  | _ -> invalid_arg ("unknown workload " ^ name)
