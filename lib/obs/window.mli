(** Sliding-window sink: time-bucketed counters and histograms keyed to the
    {e virtual} clock.

    A fixed ring of [buckets] buckets, each [width] virtual cycles wide.
    Rotation is driven by the timestamps events already carry — when a
    recorded [ts] crosses the current bucket's end the ring steps forward
    (clearing re-used buckets) — so the window needs no wall clock, never
    advances the virtual clock, and two identical runs age their buckets
    identically. The record path is allocation-free (flat preallocated int
    arrays); queries merge the last N buckets on read.

    Per-kind counts and arg sums are kept for every {!Trace.kind}; a
    configurable subset ([hist_kinds]) additionally keeps per-bucket log2
    histograms with min/max, enabling {!percentile} and {!over}. *)

type t

val create :
  ?hist_kinds:Trace.kind list ->
  width:int ->
  buckets:int ->
  unit ->
  t
(** [width] is virtual cycles per bucket, [buckets] the ring size, so the
    window spans [width * buckets] cycles. [hist_kinds] (default
    [Emc_entry; Req_end; Tdcall; Vmcall]) selects the kinds whose arg
    distribution is bucketed for percentiles. *)

val attach : Emitter.t -> t -> t
(** Attach as a sink: every emitted event is recorded. *)

val record : t -> Trace.kind -> ts:int -> arg:int -> unit
(** Record one event directly (drivers that attribute events to per-tenant
    windows themselves feed this instead of attaching). Allocation-free. *)

val advance : t -> now:int -> unit
(** Rotate the ring up to [now] without recording — call before reading so
    queries reflect the current time, not the last event's. *)

val width : t -> int
val buckets : t -> int
val ghz : float
(** 2.1, mirroring [Hw.Cycles.ghz]: converts cycle spans to seconds for
    {!rate}. *)

val hist_tracked : t -> Trace.kind -> bool
(** Whether [kind] was in [hist_kinds] (i.e. {!percentile}/{!over} work). *)

(** {2 Queries over the last [windows] buckets (current included)}

    [windows] defaults to the whole ring and is capped at the ring size. *)

val count : t -> ?windows:int -> Trace.kind -> int
val arg_sum : t -> ?windows:int -> Trace.kind -> int

val total_count : t -> Trace.kind -> int
(** Lifetime count, unaffected by bucket aging. *)

val span_cycles : t -> ?windows:int -> ?now:int -> unit -> int
(** The virtual span the queried buckets cover: full closed buckets plus
    the elapsed part of the current one. [now] defaults to the current
    bucket's end (deterministic without a clock). *)

val rate : t -> ?windows:int -> ?now:int -> Trace.kind -> float
(** Events per virtual second over the span ([count / span / ghz]). *)

val percentile : t -> ?windows:int -> Trace.kind -> p:float -> int
(** Merge-on-read percentile over the last N windows, with
    {!Histogram.percentile}'s semantics: [p] is clamped to [[0, 1]], the
    estimate is clamped to the observed [min, max] of the merged span, and
    an empty span returns 0. Raises [Invalid_argument] for a kind not in
    [hist_kinds]. *)

val over : t -> ?windows:int -> Trace.kind -> threshold:int -> int
(** Samples whose arg exceeded [threshold], estimated from the log2
    buckets: counts buckets entirely above the threshold, so the answer is
    conservative within the histogram's factor-of-two band. Raises
    [Invalid_argument] for a kind not in [hist_kinds]. *)

val to_json : t -> ?now:int -> unit -> string
(** Snapshot of every kind with a nonzero windowed count: count, arg sum,
    per-second rate, lifetime total, and p50/p95/p99 for tracked kinds. *)
