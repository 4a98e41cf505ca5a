(** Four-level page tables stored *in* simulated physical memory, so that
    write-protecting page-table pages (the Nested Kernel discipline Erebor
    follows, §5.2) is enforced by the same access checks as any other store.

    Leaves are 4 KiB entries, plus 2 MiB entries at the page-directory
    level ({!map_huge}; a PS bit at any other level is walked through like a
    table pointer). Virtual addresses are 48-bit (9+9+9+12).

    Every operation is one straight-line four-level descent: no index
    tuple, list or closure is built per call, and probing a non-present
    slot allocates nothing. *)

type walk_result = {
  pte : Pte.t;           (** Leaf entry. *)
  pte_addr : int;        (** Physical address of the leaf entry. *)
  user : bool;           (** U/S ANDed across all levels. *)
  writable : bool;       (** R/W ANDed across all levels. *)
  nx : bool;             (** NX ORed across all levels. *)
  huge : bool;           (** Leaf is a 2 MiB page-directory entry. *)
  pfn : int;             (** Frame resolved for the walked address. *)
}

val split : int -> int * int * int * int
(** [split vaddr] is the four 9-bit indices (PML4, PDPT, PD, PT). *)

val walk : Phys_mem.t -> root_pfn:int -> int -> walk_result option
(** [walk mem ~root_pfn vaddr] follows the tree; [None] if any level is
    non-present. *)

val walk_packed : Phys_mem.t -> root_pfn:int -> int -> int
(** {!walk} without the result record: the leaf slot's address and the
    accumulated permissions packed into one int (read them with the
    [packed_*] accessors), or [-1] if any level is non-present. Allocates
    nothing — the TLB-fill path. *)

val packed_pte_addr : int -> int
val packed_huge : int -> bool
val packed_nx : int -> bool
val packed_writable : int -> bool
val packed_user : int -> bool

val leaf_pfn : Pte.t -> huge:bool -> int -> int
(** [leaf_pfn pte ~huge vaddr] is the frame [vaddr] resolves to under the
    leaf entry [pte] (a huge leaf spans 512 frames). *)

val leaf_addr : Phys_mem.t -> root_pfn:int -> int -> int option
(** Physical address of the leaf PTE slot for [vaddr], if all intermediate
    levels are present (the slot itself may hold a non-present entry). *)

type writer = pte_addr:int -> Pte.t -> unit
(** How PTE stores reach memory. The native kernel writes directly; under
    Erebor the callback is an EMC into the monitor. This indirection *is* the
    paper's kernel instrumentation. *)

val map :
  Phys_mem.t ->
  write_pte:writer ->
  alloc_ptp:(unit -> int) ->
  root_pfn:int ->
  vaddr:int ->
  Pte.t ->
  unit
(** Install a leaf mapping, allocating intermediate page-table pages with
    [alloc_ptp] (which must return zeroed frames) as needed. Intermediate
    entries are created present/writable/user; leaves carry real policy. *)

val huge_page_size : int
(** 2 MiB. *)

val map_huge :
  Phys_mem.t ->
  write_pte:writer ->
  alloc_ptp:(unit -> int) ->
  root_pfn:int ->
  vaddr:int ->
  Pte.t ->
  unit
(** Install a 2 MiB leaf at the page-directory level. Both the virtual
    address and the frame must be 2 MiB-aligned. *)

val prepare_leaf :
  Phys_mem.t -> write_pte:writer -> alloc_ptp:(unit -> int) -> root_pfn:int ->
  vaddr:int -> int
(** Ensure all intermediate levels exist (allocating as needed) and return
    the physical address of the leaf slot *without* writing it — the
    building block for batched leaf installation. *)

val unmap : Phys_mem.t -> write_pte:writer -> root_pfn:int -> vaddr:int -> unit
(** Clear the leaf entry; no-op if the mapping doesn't exist. *)

val update :
  Phys_mem.t -> write_pte:writer -> root_pfn:int -> vaddr:int -> (Pte.t -> Pte.t) -> bool
(** Read-modify-write the leaf entry for [vaddr]; [false] when unmapped. *)
