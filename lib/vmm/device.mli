(** Virtio-style host devices. Their DMA goes through the host IOMMU check:
    only *shared* guest frames are reachable (§2.1). A device that is asked
    to touch private memory gets an error — the AV1 device-retrieval attack
    surface Erebor closes by controlling MapGPA. *)

type t

val create : mem:Hw.Phys_mem.t -> sept:Tdx.Sept.t -> t

val dma_read : t -> gpa:int -> len:int -> (bytes, string) result
(** Fails if any touched frame is private (or out of range). *)

val dma_write : t -> gpa:int -> bytes -> (unit, string) result

val blocked_dma_count : t -> int
(** How many DMA attempts the IOMMU rejected. *)
