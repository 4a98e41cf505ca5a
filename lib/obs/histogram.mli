(** Latency-histogram sink: per event kind, a log2-bucketed distribution of
    the event argument. Bucket [b] covers [[2^(b-1), 2^b - 1]] (bucket 0 is
    exactly 0, bucket 1 exactly 1), so EMC/tdcall round-trip latencies land
    in a handful of readable rows.

    A {!dist} is one such distribution on its own; the per-kind sink is an
    array of them. {!row_percentile} is the single rank-interpolation walk
    every log2 percentile in the library goes through ({!Query} cells,
    {!Request} latency, {!Window}'s merged view). *)

type t

val n_buckets : int
(** Number of log2 buckets per kind (63 — one per significant-bit count). *)

val create : unit -> t
val attach : Emitter.t -> t -> t

val bucket_of : int -> int
(** The bucket index a value lands in (number of significant bits). *)

val bucket_lo : int -> int
val bucket_hi : int -> int
(** Inclusive value range covered by a bucket index. *)

val row_percentile : int array -> n:int -> vmin:int -> vmax:int -> p:float -> int
(** Percentile over one bucket row ([n_buckets] counts summing to [n], with
    observed extrema [vmin]/[vmax]); semantics as {!percentile}. *)

(** {2 One distribution} *)

type dist = private {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;  (** [max_int] while empty; see {!dist_min}. *)
  mutable vmax : int;
  row : int array;     (** Bucket index -> count. *)
}

val dist : unit -> dist
val observe : dist -> int -> unit
val dist_min : dist -> int
(** Smallest observed value; 0 for an empty distribution. *)

val dist_mean : dist -> float
val dist_percentile : dist -> p:float -> int

(** {2 Per-kind sink} *)

val count : t -> Trace.kind -> int
val sum : t -> Trace.kind -> int
val max_value : t -> Trace.kind -> int

val min_value : t -> Trace.kind -> int
(** Smallest observed value; 0 for an empty distribution. *)

val mean : t -> Trace.kind -> float

val buckets : t -> Trace.kind -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val bucket_count : t -> Trace.kind -> value:int -> int
(** Count in the bucket that [value] would land in. *)

val percentile : t -> Trace.kind -> p:float -> int
(** Percentile estimate: [p] is clamped to [[0, 1]]; the rank is located in
    the bucketed distribution and interpolated linearly within the bucket's
    [[lo, hi]] range, then clamped to the observed [[min, max]]. Edge
    semantics are exact: an empty distribution returns 0 at every [p];
    [p <= 0.0] returns {!min_value}; [p >= 1.0] returns {!max_value}; a
    single-sample distribution returns that sample at every [p]. Between
    the edges the estimate is within the bucket's factor-of-two band. *)

val pp : Format.formatter -> t * Trace.kind -> unit
(** ASCII histogram for one kind, with p50/p95/p99 in the header. *)
