type state = Queued | Flying | Done

(* Entries are pooled: every field is mutable so a retired record can be
   re-initialised in place by the next [call] instead of allocating a
   fresh record per RPC. A queued entry leaves its queue only by being
   launched ([pump]) or failed ([fail_queued]), so a backpressure queue
   never holds a settled entry and retiring can always recycle. *)
type 'm entry = {
  mutable e_rid : int;
  mutable e_src : int;
  mutable e_dst : int;
  mutable e_timeout : float;
  mutable e_send : int -> unit;
  mutable e_on_give_up : unit -> unit;
  mutable e_k : 'm -> unit;
  mutable e_state : state;
  mutable e_timer : Engine.handle option;
}

type 'm t = {
  engine : Engine.t;
  cap : int;  (* per-dst in-flight cap; 0 = unbounded *)
  table : (int, 'm entry) Hashtbl.t;
  flying : (int, int) Hashtbl.t;  (* dst -> calls holding a slot *)
  queues : (int, 'm entry Queue.t) Hashtbl.t;  (* dst -> backpressure FIFO *)
  mutable free : 'm entry list;  (* retired entries ready for reuse *)
  mutable next_id : int;
  mutable queued_total : int;  (* calls ever deferred by the in-flight cap *)
}

let create engine ?(in_flight_cap = 0) () =
  {
    engine;
    cap = in_flight_cap;
    table = Hashtbl.create 64;
    flying = Hashtbl.create 16;
    queues = Hashtbl.create 16;
    free = [];
    next_id = 0;
    queued_total = 0;
  }

let in_flight t ~dst = Option.value ~default:0 (Hashtbl.find_opt t.flying dst)

let queued t ~dst =
  match Hashtbl.find_opt t.queues dst with None -> 0 | Some q -> Queue.length q

let outstanding t = Hashtbl.length t.table

let caller t rid =
  match Hashtbl.find_opt t.table rid with Some e -> Some e.e_src | None -> None

let emit t data =
  if Trace.on () then Trace.emit ~time:(Engine.now t.engine) ~node:(-1) data

let nop_send (_ : int) = ()
let nop_give_up () = ()
let take_slot t dst = Hashtbl.replace t.flying dst (in_flight t ~dst + 1)

let release_slot t dst =
  let n = in_flight t ~dst - 1 in
  if n <= 0 then Hashtbl.remove t.flying dst else Hashtbl.replace t.flying dst n

(* Retire an entry, releasing its in-flight slot if it held one, and
   return it to the pool with its closures cleared so it pins no
   environment. Callers copy any field they still need to locals
   *before* retiring, and pump the queue after running user callbacks. *)
let retire t e =
  if e.e_state = Flying then release_slot t e.e_dst;
  e.e_state <- Done;
  Hashtbl.remove t.table e.e_rid;
  e.e_send <- nop_send;
  e.e_on_give_up <- nop_give_up;
  e.e_k <- ignore;
  t.free <- e :: t.free

(* The timeout is scheduled before the send runs so that the timeout's
   [Sched] trace event precedes the send's. *)
let rec launch t e =
  take_slot t e.e_dst;
  e.e_state <- Flying;
  e.e_timer <- Some (Engine.schedule t.engine ~delay:e.e_timeout (fun () -> on_timeout t e));
  e.e_send e.e_rid

and on_timeout t e =
  if e.e_state = Flying then begin
    if Trace.on () then emit t (Trace.Rpc_timeout { rid = e.e_rid });
    give_up t e
  end

(* A flying call gives up on its timeout, a queued one (never sent) in
   [fail_queued]; [attempts] in the trace counts the sends, 1 or 0. *)
and give_up t e =
  let flew = e.e_state = Flying in
  let rid = e.e_rid and dst = e.e_dst and on_give_up = e.e_on_give_up in
  retire t e;
  if Trace.on () then emit t (Trace.Rpc_giveup { rid; attempts = Bool.to_int flew });
  (* Notify before pumping so the failed call is fully settled from the
     caller's point of view when the next queued send fires. [e] may
     already be recycled here — only the locals above are safe. *)
  on_give_up ();
  if flew then pump t dst

and pump t dst =
  if t.cap > 0 then
    match Hashtbl.find_opt t.queues dst with
    | Some q when (not (Queue.is_empty q)) && in_flight t ~dst < t.cap -> launch t (Queue.pop q)
    | Some _ | None -> ()

let call t ~src ~dst ~timeout ~send ~on_give_up k =
  let rid = t.next_id in
  t.next_id <- t.next_id + 1;
  let e =
    match t.free with
    | e :: rest ->
      t.free <- rest;
      e.e_rid <- rid;
      e.e_src <- src;
      e.e_dst <- dst;
      e.e_timeout <- timeout;
      e.e_send <- send;
      e.e_on_give_up <- on_give_up;
      e.e_k <- k;
      e.e_state <- Queued;
      e.e_timer <- None;
      e
    | [] ->
      {
        e_rid = rid;
        e_src = src;
        e_dst = dst;
        e_timeout = timeout;
        e_send = send;
        e_on_give_up = on_give_up;
        e_k = k;
        e_state = Queued;
        e_timer = None;
      }
  in
  Hashtbl.replace t.table rid e;
  if t.cap > 0 && in_flight t ~dst >= t.cap then begin
    let q =
      match Hashtbl.find_opt t.queues dst with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues dst q;
        q
    in
    Queue.push e q;
    t.queued_total <- t.queued_total + 1;
    if Trace.on () then emit t (Trace.Rpc_queued { rid; dst })
  end
  else launch t e;
  rid

let resolve t id resp =
  match Hashtbl.find_opt t.table id with
  | Some ({ e_state = Flying; _ } as e) ->
    Option.iter Engine.cancel e.e_timer;
    let dst = e.e_dst and k = e.e_k in
    retire t e;
    if Trace.on () then emit t (Trace.Rpc_resolve { rid = id });
    k resp;
    pump t dst;
    true
  | Some _ | None ->
    if Trace.on () then emit t (Trace.Rpc_late { rid = id });
    false

let fail_queued t ~dst =
  match Hashtbl.find_opt t.queues dst with
  | None -> ()
  | Some q ->
    (* Detach the queue first: give-up callbacks may start fresh calls to
       the same destination, and those must queue normally rather than be
       swept up by this pass. *)
    let doomed = Queue.create () in
    Queue.transfer q doomed;
    Queue.iter (give_up t) doomed

let queued_ever t = t.queued_total
