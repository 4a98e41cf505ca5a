(** The monitor's MMU interface control (§5.2, §6.1).

    Every page-table store in an Erebor system arrives here (via the EMC
    privops table). The guard maintains a registry classifying physical
    frames — page-table pages, monitor memory, kernel text, sandbox confined
    frames, common-region frames — and validates each requested PTE against
    it:

    - stores are only accepted into registered page-table pages;
    - intermediate entries register their child frame as a new PTP and
      write-protect its direct-map view with the PTP protection key;
    - leaf entries are first screened by the {!Isolation} backend
      ([validate_untrusted] — TME-MK rejects kernel-forged key ids here),
      then checked against the target frame's class: monitor frames are
      unmappable, PTPs and kernel text become read-only with their keys,
      confined frames obey the single-mapping rule inside their owning
      sandbox only, and common frames lose writability once sealed (a
      writable mapping of a sealed instance requested from outside any
      sandbox is denied outright).

    The single-mapping rule is mechanism-independent — at most one live
    leaf per confined frame, enforced by the guard's registry — but what
    backs it up differs per backend: under PKS/WP the only mapping is the
    owning sandbox's and the kernel's direct-map view is retagged; under
    TME-MK the accepted leaf is additionally stamped with the owner's
    encryption key id ([seal_confined_leaf]), so even a bookkeeping bypass
    yields a frame the walker refuses to decrypt for anyone but the owner.

    Backend hooks also ride classification: [classify]-ing a frame
    [Confined] tags it with its owner's key (TME-MK) and [declassify]
    untags it; PKS/WP tag nothing. *)

type common
(** A named common-memory instance as the guard tracks it: its seal state
    and the leaf slots that have mapped its frames. There is one per name
    ({!common}); a [Common] frame carries it, so a leaf store finds both
    without looking the name up. *)

type frame_class =
  | Free
  | Ptp of { level : int; root : int; sandbox : int }
      (** A page-table page of the tree rooted at [root]. [sandbox] is the
          owning sandbox id on the root's own entry (level 0) once
          {!register_sandbox_root} ran, and -1 everywhere else: lower levels
          reach it through [root]. *)
  | Monitor
  | Kernel_text
  | Confined of { owner : int }   (** Sandbox id. *)
  | Common of common

type t

val create : mem:Hw.Phys_mem.t -> cpu:Hw.Cpu.t -> backend:Isolation.t -> t
(** [backend] is the monitor's isolation backend; the guard consults it to
    screen untrusted leaves, transform accepted confined leaves, and keep
    per-frame key tags in sync with classification. *)

val set_kernel_root : t -> int -> unit
(** Identify the master kernel root whose tree carries the direct map. *)

val common : t -> instance:string -> common
(** The guard's record for the named instance, created on first use. *)

val common_name : common -> string

val register_root : t -> root_pfn:int -> (unit, string) result
(** Accept a CR3 target: the frame must not already hold another class. *)

val register_sandbox_root : t -> root_pfn:int -> sandbox:int -> unit
(** Mark a registered address-space root as belonging to a sandbox; its
    leaves are then restricted to that sandbox's confined/common frames.
    With N sandboxes per CVM each root maps to its own tenant, and the
    owner checks below keep tenants' confined frames mutually unmappable.
    A frame that is not a registered root is left alone: the guard checks
    no stores into its tree. *)

val sandbox_of_root : t -> root_pfn:int -> int
(** The sandbox owning an address-space root, or [-1] for none — the
    monitor feeds this to [Isolation.tenant_enter] on every approved CR3
    load. *)

val classify : t -> pfn:int -> frame_class -> (unit, string) result
(** Monitor-side frame classification (confined/common/monitor/text).
    Refuses to reclassify PTPs or monitor frames. *)

val class_of : t -> int -> frame_class

val declassify : t -> pfn:int -> unit
(** Monitor-internal: return a frame to [Free] (sandbox teardown). Refuses
    nothing — callers must have scrubbed the frame first. *)

val is_confined_mapped : t -> pfn:int -> bool
(** Whether a confined frame currently has its (single) mapping. *)

val write_pte : t -> trusted:bool -> pte_addr:int -> Hw.Pte.t -> (unit, string) result
(** Validate and perform one PTE store. [trusted] marks monitor-internal
    writes, which skip leaf policy but still maintain the PTP registry.
    Successful stores flush the core's TLB. *)

val seal_common : t -> instance:string -> int
(** Revoke write permission on every live mapping of an instance's frames
    (§6.1: once client data is loaded, common memory is read-only). Returns
    the number of PTEs rewritten. *)

(** {2 Huge pages (§7 future work, implemented)} *)

val split_huge_leaf : t -> pte_addr:int -> alloc_ptp:(unit -> int) -> (unit, string) result
(** Forced page splitting: replace a 2 MiB leaf with a fresh page table of
    512 equivalent 4 KiB entries (registered as a PTP), so per-page
    protection keys can then be applied. Monitor-internal (trusted). *)

val protect_page_splitting :
  t -> root_pfn:int -> vaddr:int -> key:int -> writable:bool ->
  alloc_ptp:(unit -> int) -> (unit, string) result
(** Retag one 4 KiB page with [key]/[writable], splitting the covering huge
    page first when necessary — the exact operation the paper says forced
    splitting exists for. *)

val protect_direct_map_inplace : t -> pfn:int -> key:int -> writable:bool -> bool
(** If the kernel direct map already has a leaf for [pfn], retag it with
    [key]/[writable]; returns whether a leaf existed. *)

val denied_count : t -> int
val ptp_count : t -> int
