(** EREBOR-SANDBOX (§6): monitor-managed containers that process one client's
    data. The manager owns the lifecycle — confined/common memory
    declaration, the data-loaded phase flip that seals common memory and
    disables exits, exit interposition, and terminal scrubbing.

    One manager can host N mutually-distrusting sandboxes in the same CVM:
    each gets its own address-space root (registered with the MMU guard, so
    tenant A can never map tenant B's confined frames), its own channel fd,
    per-sandbox exit statistics, and a {!Policy.tenant} policy. Which
    hardware mechanism walls tenants off is the monitor's {!Isolation}
    backend — protection keys by default, per-tenant encryption keys under
    TME-MK — and is invisible at this interface. *)

type phase = Initializing | Data_loaded | Terminated

type t

val id : t -> int
val name : t -> string
val phase : t -> phase
val main_task : t -> Kernel.Task.t
val threads : t -> Kernel.Task.t list
val kill_reason : t -> string option
val channel_fd : t -> int
(** The reserved ioctl descriptor for monitor-shepherded I/O (§6.3). *)

val confined_bytes : t -> int
val policy : t -> Policy.tenant

val exit_stats : t -> int * int * int
(** (page faults, timer interrupts, #VE-style kill attempts) observed for
    this sandbox — Table 6's exit columns. Counters are per-sandbox, so the
    columns stay meaningful with N > 1 tenants; see {!exit_stats_all}. *)

type manager

val create_manager : monitor:Monitor.t -> kern:Kernel.t -> manager
(** Also installs the kernel fault-frame hook and the monitor usercopy veto.
    One manager serves every sandbox in the CVM: tenants share the monitor
    and kernel but get their own address-space root, confined frames,
    channel fd and {!Policy.tenant} limits. *)

val create_sandbox :
  ?policy:Policy.tenant ->
  manager -> name:string -> confined_budget:int -> (t, string) result
(** New sandbox with its own address space and a hard confined-memory budget
    set by the service provider (§6.1). [policy] defaults to
    [Policy.default_tenant ~label:name]. *)

val spawn_thread : manager -> t -> name:string -> Kernel.Task.t
(** Pre-created worker thread (clone) sharing the sandbox address space. *)

val declare_confined : manager -> t -> len:int -> (int, string) result
(** Declare-and-pin a confined region: contiguous frames from the CMA
    region, classified [Confined] and fully populated (the one-time init
    cost of §9.2). Returns the region's base address. Fails when the budget
    or the CMA region is exhausted. *)

val attach_common : manager -> t -> name:string -> size:int -> (int, string) result
(** Map a (possibly pre-existing) named common instance read-write; frames
    materialize on first touch and are shared across every sandbox that
    attaches the same name. The first attach fixes the instance's size:
    attaching it with another size is refused ([Error] plus an audited
    Deny), like the phase and policy refusals. *)

val common_instance_frames : manager -> name:string -> int
(** Frames currently backing an instance (memory-saving accounting). *)

val load_client_data : manager -> t -> bytes -> (int, string) result
(** Install client plaintext into the sandbox's first confined region, seal
    every attached common instance read-only, disable user interrupts, and
    flip to [Data_loaded]. Returns the install address. *)

val read_sandbox_bytes : manager -> t -> addr:int -> len:int -> bytes
(** Monitor-side read of sandbox memory (for shepherding output). *)

val write_sandbox_bytes : manager -> t -> addr:int -> bytes -> unit

val append_output : manager -> t -> bytes -> unit
(** Collect result bytes the sandbox hands to the monitor via ioctl. *)

val take_output : manager -> t -> bytes

(** {2 Exit interposition (§6.2, Fig. 7)} *)

val handle_syscall : manager -> t -> Kernel.Syscall.call -> Kernel.Syscall.result
(** Before data: forwarded to the kernel. After data: only the reserved
    channel ioctl survives (request 1 = fetch input, request 2 = emit
    output); any other system call kills the sandbox. *)

val handle_interrupt : manager -> t -> (unit -> unit) -> unit
(** External interrupt during sandbox execution: the monitor saves and
    masks the register state around the OS handler, restoring it on the
    way out (on an exception too). The save slot is the manager's own, so
    the call allocates nothing; such interrupts do not nest (asserted). *)

val handle_ve : manager -> t -> reason:int -> Kernel.Syscall.result
(** A #VE-causing exit (hypercall attempt): kills a sealed sandbox. *)

val cpuid : manager -> t -> leaf:int -> int64
(** Emulated via the monitor's cache — no exit after the first use. *)

val page_fault : manager -> t -> addr:int -> kind:Hw.Fault.access_kind -> (unit, string) result
(** Runtime fault path for sandbox tasks (common-memory demand paging). *)

val timer_tick : manager -> t -> unit
(** A timer IRQ during sandbox execution: the OS timer handler inside
    {!handle_interrupt}. The handler is built once per manager, so a tick
    builds no closure. *)

val terminate : manager -> t -> unit
(** Scrub: zero every confined frame, unmap and free them, drop outputs. *)

val find_by_task : manager -> Kernel.Task.t -> t option
val find_by_id : manager -> int -> t option

val sandboxes : manager -> t list
(** Every sandbox the manager has created (including terminated ones),
    ascending by id — the scheduling order multi-tenant drivers iterate. *)

val exit_stats_all : manager -> (int * string * (int * int * int)) list
(** Per-sandbox [(id, name, exit_stats)] rows, ascending by id — the
    multi-tenant form of {!exit_stats} behind [Sim.Stats.sandbox_row]. *)

val sandbox_count : manager -> int
val manager_kernel : manager -> Kernel.t
val manager_monitor : manager -> Monitor.t

(** {2 Side-channel mitigations (§11)} *)

val set_mitigations : manager -> Mitigations.policy -> unit
(** Arm exit-rate limiting / quantized output / flush-on-exit for every
    sandbox exit this manager interposes. *)

val mitigation_stats : manager -> (int * int * int) option
(** (stalls, stall cycles, flushes), when mitigations are armed. *)
