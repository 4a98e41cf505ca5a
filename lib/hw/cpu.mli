(** A simulated logical core: privilege mode, GPRs, control registers, MSR
    file, EFLAGS.AC, TLB and the current IDT. All memory accesses
    go through {!translate}, which walks the page tables living in simulated
    physical memory and applies {!Access.check}; faults surface as
    [Fault.Fault] exceptions, to be caught by whichever layer plays the fault
    handler. *)

type mode = User | Supervisor

type save_area = private { slots : int64 array; mutable busy : bool }
(** A register save slot, filled and drained in place by {!masked};
    [busy] while in use. *)

type t = {
  id : int;
  mem : Phys_mem.t;
  clock : Cycles.clock;
  mutable mode : mode;
  regs : int64 array;       (** 16 GPRs. *)
  exit_save : save_area;
      (** Where a synchronous TD exit saves the GPRs (the TDX module's
          per-vCPU TDVPS slots). *)
  cr : Cr.t;
  msr : Msr.t;
  mutable ac : bool;        (** EFLAGS.AC — stac/clac. *)
  tlb : Tlb.t;
  mutable idt : Idt.t;
  apic : Apic.t;
  obs : Obs.Emitter.t;
      (** The core's event bus. Every layer that holds (or is passed) this
          CPU publishes its privilege-relevant events here — one emitter per
          simulated machine, fresh unless injected at {!create}. *)
  mutable tme : Tme.t option;
      (** TME-MK key engine, consulted at TLB-fill time when attached by
          the [tmemk] isolation backend. [None] (the default) leaves the
          fill path byte-identical to a machine without TME. Violations
          raise [Page_fault] with [pkey_violation] set and append a
          ["tme"]-category deny to the audit chain. *)
  mutable actx : Access.ctx;
      (** Cached access-check context, revalidated against the
          mode/AC/CR/MSR state before each use. *)
  mutable actx_mode : mode;
  mutable actx_ac : bool;
  mutable actx_cr_gen : int;
  mutable actx_msr_gen : int;
  mutable memo_epoch : int;
      (** Last-translation memo (one slot per access kind), valid only for
          the TLB epoch and context it was taken under. *)
  mutable memo_r_vpn : int;
  mutable memo_r_base : int;
  mutable memo_w_vpn : int;
  mutable memo_w_base : int;
  mutable memo_x_vpn : int;
  mutable memo_x_base : int;
}

val nregs : int

val create :
  ?obs:Obs.Emitter.t ->
  id:int -> mem:Phys_mem.t -> clock:Cycles.clock -> timer_period:int -> unit -> t

val emit : t -> Obs.Trace.kind -> arg:int -> unit
(** Emit on the core's bus, stamped with the current virtual cycle. Never
    advances the clock. *)

(** {2 Address translation and memory access} *)

val translate : t -> kind:Fault.access_kind -> int -> int
(** [translate t ~kind vaddr] is the physical address; raises [Fault.Fault]
    on a missing translation or a permission violation. Fills and consults
    the TLB; sets accessed/dirty bits on the leaf PTE. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

val read_into : t -> int -> bytes -> off:int -> len:int -> unit
(** [read_into t vaddr buf ~off ~len]: one translation and one blit per
    touched page, straight into [buf] — no intermediate allocation.
    [read_bytes] is this plus the result buffer. *)

val write_from : t -> int -> bytes -> off:int -> len:int -> unit

(** {2 Privileged register state (raise #GP from user mode)} *)

val write_msr : t -> int -> int64 -> unit
val read_msr : t -> int -> int64
val write_cr3 : t -> root_pfn:int -> unit
(** Also flushes the TLB, as a CR3 load does. *)

val set_cr_bit : t -> reg:[ `Cr0 | `Cr4 ] -> int64 -> bool -> unit
val lidt : t -> Idt.t -> unit
val stac : t -> unit
val clac : t -> unit

(** {2 TLB maintenance} *)

val invlpg : t -> int -> unit
val flush_tlb : t -> unit

(** {2 Register file helpers (context save / masking)} *)

val snapshot_regs : t -> int64 array
val save_regs : t -> int64 array -> unit
(** [save_regs t dst] copies the GPRs into an existing [nregs]-word save
    area: {!snapshot_regs} without the fresh array. *)

val restore_regs : t -> int64 array -> unit
val scrub_regs : t -> unit
(** Zero all GPRs — the monitor masks sandbox state at interrupts (§6.2). *)

val save_area : unit -> save_area

val masked : t -> save_area -> ('a -> 'b) -> 'a -> 'b
(** [masked t area f a] saves the GPRs into [area], scrubs them, runs
    [f a] and restores them, on an exception too — as the TDX module does
    around an exit to the host and the monitor around an interrupt. The
    masking itself allocates nothing. The exits that use one area do not
    nest: masking into a busy area fails an assertion. *)
