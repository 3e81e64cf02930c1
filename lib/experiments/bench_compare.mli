(** Reading BENCH_*.json files and gating on perf regressions.

    The pure logic behind [bench --compare --fail-above]: parse the
    octopus-bench/v1 or /v2 schema, pair kernels between a baseline and
    the current run, and decide the process exit code — kept out of
    [bench/main.ml] so the policy is unit-testable without timing
    anything. Metrics a file does not carry parse as NaN and never
    gate, so v1 baselines and v2 runs compare cleanly on the metrics
    both record. *)

type row = {
  ns_per_op : float;
  minor_words_per_op : float;
  major_words_per_op : float;  (** NaN in v1 files *)
  peak_heap_mb : float;  (** NaN in v1 files *)
  bytes_per_node : float;  (** NaN except on scale kernels *)
}

type delta = {
  kernel : string;
  base_ns : float;
  now_ns : float;
  pct : float;  (** (now - base) / base * 100; positive = slower *)
}

val parse : path:string -> string -> (string * row) list
(** [parse ~path src] reads an octopus-bench/v1 document from [src];
    [path] only labels error messages. Raises [Failure] on malformed
    input. *)

val read_file : string -> (string * row) list
(** [parse] applied to a file's contents. *)

val deltas : baseline:(string * row) list -> current:(string * row) list -> delta list
(** Pair current kernels with baseline rows by name. Kernels missing
    from the baseline, or with NaN/degenerate timings on either side,
    are skipped — they carry no regression signal. *)

val unpaired :
  baseline:(string * row) list -> current:(string * row) list -> string list * string list
(** [(only_in_baseline, only_in_current)] kernel names, in input order.
    Unpaired kernels never gate ({!deltas} skips them): a baseline
    recorded before a kernel existed — e.g. one of the early baselines
    in commit 1121056, against a run that now has [load/*] kernels — must
    not fail
    [--compare --fail-above], only report the asymmetry. *)

val regressions : fail_above:float -> delta list -> delta list
(** Deltas slower than [fail_above] percent. *)

type mem_delta = {
  m_kernel : string;
  m_metric : string;
      (** ["major_words_per_op"], ["peak_heap_mb"] or ["bytes_per_node"] *)
  m_base : float;
  m_now : float;
  m_pct : float;  (** (now - base) / base * 100; positive = more memory *)
}

val mem_deltas :
  baseline:(string * row) list -> current:(string * row) list -> mem_delta list
(** One delta per kernel pairing per memory metric finite and positive
    on both sides. A v1 baseline (no memory fields) produces none, so
    memory gating switches on automatically once a v2 baseline is
    recorded. *)

val mem_regressions : fail_above:float -> mem_delta list -> mem_delta list
(** Memory deltas grown past [fail_above] percent. *)

val worst : delta list -> delta option
(** The largest regression (most positive [pct]), if any deltas paired. *)

val exit_code : fail_above:float option -> delta list -> int
(** [0] when no threshold was requested or every delta is within it;
    [3] when any kernel regressed past [fail_above]. *)
