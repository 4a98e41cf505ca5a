(** Relative-error quantile sketch (DDSketch-style log-gamma
    buckets) at a fixed accuracy of {!alpha} = 1%.

    Values land in buckets [i = ceil (ln v / ln gamma)] with
    [gamma = (1+alpha)/(1-alpha)], so every quantile estimate is within a
    relative error of [alpha] of some value actually recorded (plus at
    most 1 absolute from integer rounding; values below [1 / 2 alpha]
    occupy one bucket per integer and are exact). {!Histogram}'s log2
    buckets, by contrast, are only good to a factor of two.

    Determinism contract: the sketch state is a pure function of the
    multiset of recorded values — record order never changes it — so two
    sketches over the same values are structurally equal ([=]). *)

type t

val alpha : float
(** 0.01 — the relative accuracy every sketch is built for. *)

val create : unit -> t
(** A fresh sketch with enough buckets for the full int range (~2150),
    allocated once here; {!record} never allocates. *)

val record : t -> int -> unit
(** Record one value. Allocation-free. Values [<= 0] are counted in a
    dedicated zero bucket. *)

val quantile : t -> p:float -> int
(** Quantile estimate with {!Histogram.percentile}'s edge semantics:
    empty sketch returns 0 at every [p]; [p] is clamped to [[0, 1]];
    [p <= 0.0] returns the smallest value recorded; [p >= 1.0] the largest; a
    single-sample sketch returns that sample at every [p]. In between,
    the estimate is within relative error [alpha] (+1 for integer
    rounding) of the exact rank-[ceil (p * n)] order statistic, and is
    clamped to the observed [[min, max]]. The relative-error bound holds
    for non-negative streams (latencies); negative values share the zero
    bucket and are pinned only by the min clamp. *)

(** Per-kind sketch family attachable as an emitter sink, mirroring
    {!Histogram.attach}: every event's argument is recorded into its
    kind's sketch. *)
module Family : sig
  type t

  val create : unit -> t
  val attach : Emitter.t -> t -> t
end
