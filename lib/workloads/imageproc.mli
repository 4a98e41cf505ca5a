(** Image-processing service (YOLOv5 segmentation in the paper, Table 5):
    a real Sobel edge detector plus connected-component segmentation over
    synthetic grayscale images; the shared NCNN-style model weights are the
    common region. *)

module Image : sig
  type t = { width : int; height : int; pixels : int array }

  val synthetic : rng:Crypto.Drbg.t -> width:int -> height:int -> blobs:int -> t
  (** Random bright blobs on a dark background. *)

  val sobel : t -> t
  (** Gradient magnitude (edge strength). *)

  val threshold : t -> level:int -> t
  (** Binarize at [level]. *)

  val segments : t -> int
  (** Connected components (4-neighbour) of the non-zero pixels. *)
end

val profile : Workload.profile
val spec : unit -> Sim.Machine.spec
