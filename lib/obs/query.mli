(** Offline journal queries: filter + group-by over a recorded event stream.

    One of the analysis engines layered on {!Journal.replay}: select
    events by kind, machine (by name, any number of streams), sandbox
    lifetime or time range, then aggregate into rows — counts, argument
    sums and percentiles — grouped by kind, machine or span phase. Each
    cell is a {!Histogram.dist}, so a kind row's percentiles equal the
    live {!Histogram} sink's for the same run. Runs in one replay; the
    journal is never materialized. *)

type filter = {
  kinds : Trace.kind list;  (** Keep these kinds ([[]] = all). *)
  machines : string list;   (** Keep these machine streams ([[]] = all). *)
  sandbox : int option;
      (** Keep only events inside this sandbox's lifetime window: from its
          [Sandbox_create] to its [Sandbox_exit]/[Sandbox_kill] on the same
          stream (to end-of-stream when it never exits). *)
  t0 : int option;          (** Keep events with [ts >= t0]. *)
  t1 : int option;          (** Keep events with [ts <= t1]. *)
}

val no_filter : filter

type group =
  | By_kind     (** One row per {!Trace.kind}. *)
  | By_machine  (** One row per journal stream. *)
  | By_phase
      (** One row per {!Trace.phase}: spans, counted at [Span_end] with the
          inclusive span duration as the value (begin/end pairing per
          stream). Non-span events are ignored. *)
  | By_none     (** A single ["all"] row. *)

type row = {
  label : string;
  count : int;
  sum : int;      (** Sum of values (event args; span cycles [By_phase]). *)
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;      (** Log2-bucket percentile estimates ({!Histogram}). *)
}

val run :
  ?filter:filter -> ?group:group -> path:string -> unit ->
  (row list * Journal.info, string) result
(** Stream the journal once, returning non-empty rows (descending count,
    label as tiebreak). [group] defaults to [By_kind]. *)

val render : row list -> string
(** Aligned text table (header + one line per row). *)
