(** Every gated regime, in CLI order: [trace], [chaos], [attack],
    [load], [scale]. *)

val all : Regime.t list

val select : string -> Regime.t list option
(** ["SUITE"] names every regime of the suite, ["SUITE/REGIME"] one
    regime; [None] for anything else. *)
