(** Simulated guest-physical memory: 4 KiB frames with lazily-allocated
    backing bytes, so a multi-GiB guest costs host memory only for frames
    that are actually touched. The frame index is a two-level
    {!Frame_table}: a directory of one slot per 512 frames, whose leaves of
    512 page pointers are allocated on the first write into their run, so
    assembling a machine costs in proportion to the frames it writes, not
    to its RAM. Reads of never-written frames observe zeros, like
    freshly-assigned RAM. Frame lookup is one directory load and one leaf
    load — O(1) with no hashing — and bulk transfers blit page-by-page with
    no intermediate allocation. *)

val page_size : int  (** 4096. *)
val page_shift : int (** 12. *)

type t

val create : frames:int -> t
(** A physical address space of [frames] 4 KiB frames. *)

val frames : t -> int

val pfn_of_addr : int -> int
val addr_of_pfn : int -> int
val page_offset : int -> int

val read_u8 : t -> int -> int
(** [read_u8 t paddr]. Raises [Invalid_argument] for out-of-range addresses. *)

val write_u8 : t -> int -> int -> unit

val read_u64 : t -> int -> Pte.t
(** The page-table entry stored at [paddr]: the little-endian word there
    through {!Pte.of_raw}. Must not cross a page boundary (8-byte aligned
    callers never do). Allocates nothing where inlined. *)

val write_u64 : t -> int -> Pte.t -> unit
(** Store an entry as {!Pte.to_raw} of it; same rules as {!read_u64}. *)

val read_raw_u64 : t -> int -> int64
(** The little-endian 64-bit word at [paddr], unconverted: data, not page
    tables ({!Cpu.read_u64}). Same bounds rules as {!read_u64}. *)

val write_raw_u64 : t -> int -> int64 -> unit

val blit_to : t -> int -> bytes -> off:int -> len:int -> unit
(** [blit_to t paddr dst ~off ~len] copies physical memory into [dst] at
    [off]; may cross page boundaries. Unbacked frames read as zeros. One
    blit per touched frame, no intermediate allocation. *)

val blit_from : t -> int -> bytes -> off:int -> len:int -> unit
(** [blit_from t paddr src ~off ~len] copies [len] bytes of [src] starting
    at [off] into physical memory at [paddr]. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** Physical-to-physical copy with no staging buffer (page duplication in
    fork, module loads). Copying from an unbacked frame zeros the
    destination range without materializing the source. *)

val read_bytes : t -> int -> int -> bytes
(** [read_bytes t paddr len]; may cross page boundaries. Allocates only the
    result buffer ([blit_to] underneath). *)

val write_bytes : t -> int -> bytes -> unit

val zero_page : t -> int -> unit
(** [zero_page t pfn] clears a frame (sandbox teardown scrubbing). *)

val page_is_backed : t -> int -> bool
(** Whether the frame has materialized backing bytes (i.e. was written).
    [false] for any pfn outside [0, frames). *)

val backed_count : t -> int
(** Number of materialized frames — the simulator's own footprint metric. *)
