(** Re-exported submodules: the library's entry module shadows them. *)

module Layout = Layout
module Privops = Privops
module Alloc = Alloc
module Vma = Vma
module Task = Task
module Sched = Sched
module Fs = Fs
module Syscall = Syscall

(** The deprivileged guest kernel. All of its sensitive operations go through
    the {!Privops} table, so the same kernel code runs natively (direct
    execution) or under Erebor (every sensitive operation is an EMC). The
    kernel manages tasks, address spaces, demand paging, the scheduler, an
    in-memory filesystem and the #VE path to the host. *)

type stats = {
  mutable page_faults : int;
  mutable syscalls : int;
  mutable timer_irqs : int;
  mutable ve_exits : int;
  mutable segfaults : int;
}

type t = {
  mem : Hw.Phys_mem.t;
  clock : Hw.Cycles.clock;
  cpu : Hw.Cpu.t;
  td : Tdx.Td_module.t;
  privops : Privops.t;
  frame_alloc : Alloc.t;   (** General-purpose frames. *)
  alloc_ptp : unit -> int;
      (** A zeroed [frame_alloc] frame for a new page-table page. Built
          once at boot, so a fault hands it to {!Hw.Page_table} without
          allocating a closure. *)
  cma : Alloc.t;           (** Reserved contiguous region for confined memory. *)
  fs : Fs.t;
  sched : Sched.t;
  kernel_root : int;       (** Master kernel page-table root (PML4 pfn). *)
  tasks : (int, Task.t) Hashtbl.t;  (** Live tasks by tid. *)
  mutable next_tid : int;
  stats : stats;
  mutable frame_source : (Task.t -> Vma.region -> addr:int -> int) option;
      (** Erebor hook: serve fault frames from common-memory instances or
          pinned confined pools instead of the general allocator. A
          negative result means "no frame here": the fault falls back to
          the region's allocator. *)
  futex_waiters : Task.t Queue.t;
  mutable mmu_batching : bool;
      (** When set, bulk operations ({!populate}) submit leaf PTEs through
          {!Privops.t.write_pte_batch} — §9.1's batched-MMU optimization. *)
  mutable io_scratch : bytes;
      (** Reusable landing buffer for special-file writes (grown on
          demand), so the steady-state write path allocates nothing. *)
}

val boot :
  mem:Hw.Phys_mem.t ->
  cpu:Hw.Cpu.t ->
  td:Tdx.Td_module.t ->
  privops:Privops.t ->
  reserved_frames:int ->
  cma_frames:int ->
  t
(** Bring up the kernel: build the master page-table root, enable
    SMEP/SMAP/WP via the privops table, carve out the allocators
    ([reserved_frames] at the bottom stay out of both — monitor + kernel
    image), and start the scheduler. *)

(** {2 Address spaces and paging} *)

val create_task : t -> name:string -> kind:Task.kind -> Task.t
(** New task with a fresh address space (kernel half shared with the master
    root). Enqueued runnable. *)

val clone_thread : t -> Task.t -> name:string -> Task.t
(** New task sharing the caller's page tables, with a snapshot of its VMAs:
    a later mmap or munmap by either task is not seen by the other. *)

val fork_process : t -> Task.t -> name:string -> Task.t
(** Full fork: new address space, user VMAs copied, all present user pages
    duplicated (eager copy — the simulated kernel has no COW). *)

val mmap : t -> Task.t -> len:int -> prot:Vma.prot -> kind:Vma.kind -> int
(** Reserve a user region (demand-paged); returns its base address, or [-1]
    when [len] is not positive or no gap below {!Layout.user_top} fits it.
    Builds only the region's record. *)

val munmap : t -> Task.t -> addr:int -> (unit, string) result
(** Remove the region starting at [addr] and unmap + free its pages. *)

val handle_page_fault : t -> Task.t -> addr:int -> kind:Hw.Fault.access_kind -> (unit, string) result
(** Demand-pager: on a fault inside a valid VMA with sufficient protection,
    allocate a frame (CMA for confined regions) and install the PTE via
    privops. [Error _] is a segfault. *)

val populate : t -> Task.t -> start:int -> len:int -> (unit, string) result
(** Pre-fault every page of a range (confined-memory pinning; init cost). *)

val resolve_pfn : t -> Task.t -> addr:int -> int option
(** Leaf pfn currently mapped at a user address, if any. *)

val ensure_direct_map : t -> pfn:int -> unit
(** Make sure the kernel direct map covers a frame (demand-populated; each
    miss is one PTE install through privops). *)

(** {2 System calls, interrupts, #VE} *)

val syscall : t -> Task.t -> Syscall.call -> Syscall.result
(** Full syscall path: entry/exit cost, dispatch, user copies via privops. *)

val rw : t -> Task.t -> write:bool -> fd:int -> user_buf:int -> len:int -> int
(** [syscall] of a [Read] or [Write] on the user buffer [user_buf] (which
    must be non-zero), with the same cycles, events and span: the byte
    count. Builds neither the request nor the result, so a warm call on a
    special node allocates nothing. Raises [Failure] on a bad fd or a
    missing file. *)

val cpuid : t -> Task.t -> leaf:int -> int64
(** The #VE path: guest cpuid traps to the TDX module, the guest #VE handler
    re-issues it as a vmcall to the host (Fig. 1). Counts a #VE exit. *)

val timer_interrupt : t -> unit
(** Deliver one APIC timer tick: interrupt cost, scheduler tick, possible
    context switch (CR3 write through privops). *)

val note_ve_exit : t -> unit
(** Account one #VE exit that was serviced outside {!cpuid} (host I/O paths
    driven by the machine harness). Bumps the stat and emits [Ve_exit]. *)

val exit_task : t -> Task.t -> code:int -> unit
(** Mark the task dead, take it off the run queue and drop it from
    [tasks]. Its address space is the caller's to release. *)

val brk : t -> Task.t -> new_brk:int -> (int, string) result
(** Grow the program break (shrinking is accepted but ignored). *)

val set_frame_source : t -> (Task.t -> Vma.region -> addr:int -> int) -> unit
(** Install the Erebor fault-frame provider (see {!field-frame_source}). *)

val set_mmu_batching : t -> bool -> unit

(** {2 Dynamic kernel code (§7)} *)

val load_module : t -> name:string -> code:bytes -> (int, string) result
(** Verify (monitor byte-scan under Erebor), load and map a kernel module
    read-only + executable. Returns its base address. *)

val poke_text : t -> vaddr:int -> code:bytes -> (unit, string) result
(** text_poke: validated in-place update of kernel code, performed with the
    monitor's privilege since kernel text is write-protected. *)

(** {2 Introspection} *)

val live_task_count : t -> int
(** Tasks created and not yet exited. *)
