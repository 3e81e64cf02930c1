(* Wall clock, GC accounting and the traced-run instruments.

   The wall clock is bechamel's monotonic clock, read only here: the
   simulator never sees it. An untraced repetition uses [now_ns] around
   whole phases and nothing else; the trace subscriber ([attach]) and the
   runtime-events reader ([Pauses]) exist only in a traced repetition. *)

module Trace = Octo_sim.Trace
module Engine = Octo_sim.Engine

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. (1024.0 *. 1024.0)

(* ------------------------------------------------------------------ *)
(* GC deltas around a phase *)

type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since a =
  let b = gc_now () in
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* GC pauses from the runtime's own event ring *)

module Pauses = struct
  module R = Runtime_events

  type acc = { mutable depth : int; mutable since : int64; mutable total_ns : int64; mutable lost : int }
  type t = { cursor : R.cursor; callbacks : R.Callbacks.t; acc : acc }

  (* The phases during which the mutator is stopped. Nested phases are
     merged: time counts while at least one of them is open. *)
  let stops = function
    | R.EV_MINOR | R.EV_MAJOR_SLICE | R.EV_EXPLICIT_GC_MINOR | R.EV_EXPLICIT_GC_MAJOR
    | R.EV_EXPLICIT_GC_FULL_MAJOR | R.EV_EXPLICIT_GC_COMPACT | R.EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
    | _ -> false

  let start () =
    R.start ();
    let acc = { depth = 0; since = 0L; total_ns = 0L; lost = 0 } in
    let callbacks =
      R.Callbacks.create
        ~runtime_begin:(fun _ ts phase ->
          if stops phase then begin
            if acc.depth = 0 then acc.since <- R.Timestamp.to_int64 ts;
            acc.depth <- acc.depth + 1
          end)
        ~runtime_end:(fun _ ts phase ->
          if stops phase && acc.depth > 0 then begin
            acc.depth <- acc.depth - 1;
            if acc.depth = 0 then
              acc.total_ns <- Int64.add acc.total_ns (Int64.sub (R.Timestamp.to_int64 ts) acc.since)
          end)
        ~lost_events:(fun _ k -> acc.lost <- acc.lost + k)
        ()
    in
    let cursor = R.create_cursor None in
    (* Skip whatever the ring held before the measured phase. *)
    ignore (R.read_poll cursor (R.Callbacks.create ()) None);
    { cursor; callbacks; acc }

  let poll t = ignore (R.read_poll t.cursor t.callbacks None)

  let finish t =
    poll t;
    R.free_cursor t.cursor;
    R.pause ();
    (Int64.to_float t.acc.total_ns *. 1e-9, t.acc.lost)
end

(* ------------------------------------------------------------------ *)
(* Trace subscriber: event counts by constructor, layer attribution *)

(* Layers an event is attributed to. The gap since the previous event
   is charged to the layer of the event that ends it: the work that led
   up to an emission. *)
let layer_names = [| "engine"; "net"; "rpc"; "msgs"; "lookup"; "defense"; "churn"; "fault"; "other" |]

let engine_l = 0
and net_l = 1
and rpc_l = 2
and msgs_l = 3
and lookup_l = 4
and defense_l = 5
and churn_l = 6
and fault_l = 7
and other_l = 8

(* Counted constructors; everything else (including constructors added
   after this file) lands in [c_other]. *)
let c_sched = 0
and c_net_send = 1
and c_net_deliver = 2
and c_net_drop = 3
and c_rpc_timeout = 4
and c_rpc_resolve = 5
and c_rpc_late = 6
and c_rpc_retry = 7
and c_rpc_giveup = 8
and c_rpc_queued = 9
and c_msg = 10
and c_walk_step = 11
and c_walk_done = 12
and c_walk_abandoned = 13
and c_circuit_built = 14
and c_circuit_torn = 15
and c_path_fallback = 16
and c_lookup_start = 17
and c_lookup_done = 18
and c_query_sent = 19
and c_surveillance = 20
and c_ca_report = 21
and c_revoked = 22
and c_churn_leave = 23
and c_churn_join = 24
and c_fault = 25
and c_other = 26

let ctor_layer =
  [| engine_l; net_l; net_l; net_l; rpc_l; rpc_l; rpc_l; rpc_l; rpc_l; rpc_l; msgs_l; lookup_l;
     lookup_l; lookup_l; lookup_l; lookup_l; lookup_l; lookup_l; lookup_l; lookup_l; defense_l;
     defense_l; defense_l; churn_l; churn_l; fault_l; other_l |]

let[@warning "-11"] ctor_of : Trace.data -> int = function
  | Trace.Sched _ -> c_sched
  | Trace.Net_send _ -> c_net_send
  | Trace.Net_deliver _ -> c_net_deliver
  | Trace.Net_drop _ -> c_net_drop
  | Trace.Rpc_timeout _ -> c_rpc_timeout
  | Trace.Rpc_resolve _ -> c_rpc_resolve
  | Trace.Rpc_late _ -> c_rpc_late
  | Trace.Rpc_retry _ -> c_rpc_retry
  | Trace.Rpc_giveup _ -> c_rpc_giveup
  | Trace.Rpc_queued _ -> c_rpc_queued
  | Trace.Msg _ -> c_msg
  | Trace.Walk_step _ -> c_walk_step
  | Trace.Walk_done _ -> c_walk_done
  | Trace.Walk_abandoned _ -> c_walk_abandoned
  | Trace.Circuit_built _ -> c_circuit_built
  | Trace.Circuit_torn _ -> c_circuit_torn
  | Trace.Path_fallback _ -> c_path_fallback
  | Trace.Lookup_start _ -> c_lookup_start
  | Trace.Lookup_done _ -> c_lookup_done
  | Trace.Query_sent _ -> c_query_sent
  | Trace.Surveillance _ -> c_surveillance
  | Trace.Ca_report _ -> c_ca_report
  | Trace.Revoked _ -> c_revoked
  | Trace.Churn_leave _ -> c_churn_leave
  | Trace.Churn_join _ -> c_churn_join
  | Trace.Fault_phase _ | Trace.Fault_corrupt _ | Trace.Fault_dup _ | Trace.Fault_reorder _
  | Trace.Fault_crash _ | Trace.Fault_recover _ ->
    c_fault
  | _ -> c_other

(* Protocol egress families, by [Types.kind] of the sent message. *)
let family_names = [| "list"; "table"; "anon"; "fwd"; "ca"; "other" |]

let family_of_kind = function
  | "List_req" | "List_resp" -> 0
  | "Table_req" | "Table_resp" -> 1
  | "Anon_req" | "Anon_resp" -> 2
  | "Fwd" | "Fwd_reply" | "Receipt_msg" | "Witness_req" | "Witness_resp" -> 3
  | "Report_msg" | "Justify_req" | "Justify_resp" | "Proofs_req" | "Proofs_resp"
  | "Evidence_req" | "Evidence_resp" | "Ping_req" | "Ping_resp" ->
    4
  | _ -> 5

type t = {
  engine : Engine.t option;  (* sampled for the pending-event peak *)
  mutable pauses : Pauses.t option;
  mutable armed : bool;  (* attribution runs only inside the measured phase *)
  mutable last : int;
  mutable events : int;
  attr_ns : int array;
  ctor : int array;
  fam_count : int array;
  fam_bytes : int array;
  mutable pending_peak : int;
  mutable walk_ok : int;
  mutable anon_lookups : int;
  mutable anon_hops : int;
  mutable dummies : int;
  mutable onion_layers : int;
  mutable signed_docs : int;
  verdicts : int array;  (* clean, retest, reported *)
  mutable issue_ns : int;
  mutable issue_calls : int;
}

let create ?engine () =
  {
    engine;
    pauses = None;
    armed = false;
    last = 0;
    events = 0;
    attr_ns = Array.make (Array.length layer_names) 0;
    ctor = Array.make (c_other + 1) 0;
    fam_count = Array.make (Array.length family_names) 0;
    fam_bytes = Array.make (Array.length family_names) 0;
    pending_peak = 0;
    walk_ok = 0;
    anon_lookups = 0;
    anon_hops = 0;
    dummies = 0;
    onion_layers = 0;
    signed_docs = 0;
    verdicts = Array.make 3 0;
    issue_ns = 0;
    issue_calls = 0;
  }

let on_event t (ev : Trace.event) =
  let c = ctor_of ev.Trace.data in
  t.ctor.(c) <- t.ctor.(c) + 1;
  if t.armed then begin
    let now = now_ns () in
    let l = ctor_layer.(c) in
    t.attr_ns.(l) <- t.attr_ns.(l) + (now - t.last);
    t.last <- now
  end;
  (match t.engine with
  | Some e ->
    let p = Engine.pending e in
    if p > t.pending_peak then t.pending_peak <- p
  | None -> ());
  (match ev.Trace.data with
  | Trace.Msg { kind; size; _ } ->
    let f = family_of_kind kind in
    t.fam_count.(f) <- t.fam_count.(f) + 1;
    t.fam_bytes.(f) <- t.fam_bytes.(f) + size;
    if String.equal kind "List_resp" || String.equal kind "Table_resp" then
      t.signed_docs <- t.signed_docs + 1
  | Trace.Walk_done { ok } -> if ok then t.walk_ok <- t.walk_ok + 1
  | Trace.Lookup_done { hops; anonymous; _ } ->
    if anonymous then begin
      t.anon_lookups <- t.anon_lookups + 1;
      t.anon_hops <- t.anon_hops + hops
    end
  | Trace.Query_sent { relays; dummy; _ } ->
    if dummy then t.dummies <- t.dummies + 1;
    t.onion_layers <- t.onion_layers + List.length relays
  | Trace.Surveillance { verdict; _ } -> (
    match verdict with
    | "clean" -> t.verdicts.(0) <- t.verdicts.(0) + 1
    | "retest" -> t.verdicts.(1) <- t.verdicts.(1) + 1
    | _ -> t.verdicts.(2) <- t.verdicts.(2) + 1)
  | _ -> ());
  (* Drain the runtime-event ring often enough that it never wraps. *)
  t.events <- t.events + 1;
  match t.pauses with
  | Some p when t.events land 1023 = 0 -> Pauses.poll p
  | Some _ | None -> ()

let attach t trace = Trace.subscribe trace (on_event t)

(* Start attribution and GC-pause collection: the measured phase begins. *)
let arm t =
  t.pauses <- Some (Pauses.start ());
  t.armed <- true;
  t.last <- now_ns ()
let poll t = Option.iter Pauses.poll t.pauses

(* Time one synchronous public call (the issuing half of a lookup). *)
let time_issue t f =
  let t0 = now_ns () in
  f ();
  t.issue_ns <- t.issue_ns + (now_ns () - t0);
  t.issue_calls <- t.issue_calls + 1

let count t c = t.ctor.(c)

(* Per-layer figures. [run_s] is the measured phase's wall time; the
   part of it no event gap covers (before the first and after the last
   in-phase event) is reported as [attr_s.residual]. *)
let metrics t ~run_s =
  let pauses =
    match t.pauses with
    | Some p ->
      let s, lost = Pauses.finish p in
      [ ("gc.pause_s", s); ("gc.pause_lost_events", float_of_int lost) ]
    | None -> []
  in
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let attributed = Array.fold_left ( + ) 0 t.attr_ns in
  let attr =
    Array.to_list (Array.mapi (fun i ns -> ("attr_s." ^ layer_names.(i), f ns *. 1e-9)) t.attr_ns)
  in
  let fams =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i name ->
              [ ("msgs." ^ name, f t.fam_count.(i)); ("msgs." ^ name ^ "_bytes", f t.fam_bytes.(i)) ])
            family_names))
  in
  let c = count t in
  let queries = c c_query_sent in
  pauses @ attr @ fams
  @ [
      ("attr_s.residual", Float.max 0.0 (run_s -. (f attributed *. 1e-9)));
      ("engine.pending_peak", f t.pending_peak);
      ("net.drops", f (c c_net_drop));
      ("rpc.resolved", f (c c_rpc_resolve));
      ("rpc.timeouts", f (c c_rpc_timeout));
      ("rpc.retries", f (c c_rpc_retry));
      ("rpc.giveups", f (c c_rpc_giveup));
      ("rpc.late", f (c c_rpc_late));
      ("rpc.queued", f (c c_rpc_queued));
      ("rpc.giveup_ratio", ratio (c c_rpc_giveup) (c c_rpc_giveup + c c_rpc_resolve));
      ("crypto.onion_layers", f t.onion_layers);
      ("crypto.signed_docs", f t.signed_docs);
      ("chord.churn_events", f (c c_churn_leave + c c_churn_join));
      ("lookup.issue_us", if t.issue_calls = 0 then 0.0 else f t.issue_ns /. f t.issue_calls /. 1e3);
      ("lookup.hops_mean", ratio t.anon_hops t.anon_lookups);
      ("lookup.queries_per_lookup", ratio queries t.anon_lookups);
      ("lookup.dummy_share", ratio t.dummies queries);
      ("walk.ok_ratio", ratio t.walk_ok (c c_walk_done));
      ("walk.abandoned", f (c c_walk_abandoned));
      ("circuit.built", f (c c_circuit_built));
      ("circuit.torn", f (c c_circuit_torn));
      ("path.fallbacks", f (c c_path_fallback));
      ("surveillance.clean", f t.verdicts.(0));
      ("surveillance.retest", f t.verdicts.(1));
      ("surveillance.reported", f t.verdicts.(2));
      ("ca.reports", f (c c_ca_report));
      ("ca.revocations", f (c c_revoked));
    ]
