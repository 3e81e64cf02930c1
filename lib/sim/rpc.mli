(** Request/response substrate on top of {!Net}: the one way every
    protocol here (Octopus, plain Chord and the baselines) correlates a
    response with its request.

    A call is single-attempt. Octopus relays drop a duplicate cid, so a
    retransmission could not get through, and a missed response is the
    failure signal that query deadlines and the selective-DoS receipts
    act on. Protocol-level retries live in the protocols that need them.
    A per-destination in-flight cap queues excess calls (FIFO
    backpressure).

    The module is transport-agnostic: the caller supplies a [send]
    closure that ships the request id over whatever wire it likes, and
    resolves the call when a response carrying that id comes back.
    Request ids are allocated sequentially from 0 and are never reused.

    State machine of a call:

    {v
      Queued --(slot frees)--> Flying --resolve--> Done (continuation)
                                  |
                                  +----timeout---> Done (on_give_up)
      Queued --fail_queued--> Done (on_give_up)
    v}

    A call draws no randomness, so installing [Rpc] leaves every RNG
    stream untouched. *)

type 'm t

val create : Engine.t -> ?in_flight_cap:int -> unit -> 'm t
(** [in_flight_cap] bounds concurrently flying calls per destination;
    [0] (the default) means unbounded. *)

val call :
  'm t ->
  src:int ->
  dst:int ->
  timeout:float ->
  send:(int -> unit) ->
  on_give_up:(unit -> unit) ->
  ('m -> unit) ->
  int
(** Start a call and return its request id. [send rid] is invoked once,
    when the call takes an in-flight slot; the timeout is scheduled just
    before, so its trace event precedes the send's. Exactly one of the
    continuation (on {!resolve}) or [on_give_up] fires. *)

val resolve : 'm t -> int -> 'm -> bool
(** Hand a response to the flying call with this request id. Returns
    [false] (and emits [Rpc_late]) if no such call is flying: it already
    gave up or resolved, or was never sent. *)

val caller : 'm t -> int -> int option
(** [caller t rid] is the [src] of the live call with this id, if any.
    Lets a demultiplexing handler decide whether an incoming response
    belongs to a call it originated. *)

val in_flight : 'm t -> dst:int -> int
(** Calls currently holding an in-flight slot for [dst]. *)

val queued : 'm t -> dst:int -> int
(** Calls waiting in [dst]'s backpressure queue. *)

val fail_queued : 'm t -> dst:int -> unit
(** Fail every call still queued behind [dst]'s in-flight cap, in FIFO
    order: each emits [Rpc_giveup] and runs its [on_give_up] callback.
    Called when [dst] is known dead, so queued calls fail fast instead
    of waiting to be launched into a void and timing out one slot at a
    time. Calls already flying are left to their own timeouts. No-op
    when the cap is unbounded (no queues exist). *)

val outstanding : 'm t -> int
(** Total live calls (queued or flying). *)

val queued_ever : 'm t -> int
(** Cumulative count of calls that were ever deferred by the in-flight
    cap (one per [Rpc_queued] trace event). The load harness reports
    this as its backpressure figure; always 0 with an unbounded cap. *)
