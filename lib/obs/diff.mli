(** Journal-vs-journal run diffing over the attribution taxonomy.

    Each journal is replayed per-stream through the same {!Attrib} profiler
    the live bus uses, yielding per-(domain x phase) self-cycle totals plus
    span counts; the two attributions are then compared entry by entry.
    Because replay reuses the live profiler, a journal diffed against the
    recording of an identical run reports exactly zero deltas — the
    regression gate in [bench check] ([journal/diff-*]) depends on that. *)

type entry = {
  edomain : Trace.domain;
  ephase : Trace.phase;
  cycles_a : int;
  cycles_b : int;
  count_a : int;     (** Spans entered ([Span_begin] events) in run A. *)
  count_b : int;
  delta : int;       (** [cycles_b - cycles_a]. *)
  pct : float;       (** Delta relative to run A (+inf when A is 0). *)
}

type t = {
  entries : entry list;    (** Union of phases active in either run,
                               {!Trace.phase_index} order. *)
  events_a : int;
  events_b : int;
  total_a : int;           (** Attributed cycles, run A (all streams). *)
  total_b : int;
}

val attribution : path:string -> ((int * int) array * Journal.info, string) result
(** Replay one journal through {!Attrib}: per {!Trace.phase_index}, the
    (self-cycles, span-count) pair summed over all streams. Building block
    for {!compare_files}; exposed for the replay cross-checks in tests. *)

val compare_files : a:string -> b:string -> (t, string) result

val regressions : ?threshold:float -> ?min_cycles:int -> t -> entry list
(** Entries where run B spends more cycles than run A by more than
    [threshold] percent (default 5.0) {e and} at least [min_cycles]
    absolute (default 1000 — keeps near-zero phases from tripping the
    percentage test). Empty for identical runs. *)

val render : ?threshold:float -> ?min_cycles:int -> t -> string
(** Aligned per-phase delta table; regressions flagged with [!]. *)
