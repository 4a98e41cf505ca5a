(** The event taxonomy of the observability subsystem.

    Every privilege-relevant occurrence in the simulated stack — EMCs by
    kind, syscalls, page faults, timer IRQs, #VE exits, context switches,
    tdcalls/vmcalls, TLB refills, hardware faults, MMU-guard denials,
    channel traffic and sandbox lifecycle — is one {!kind}. Kinds map to a
    dense integer range [0, n_kinds) via {!index}, so sinks can be plain
    arrays and emission never allocates.

    For cycle attribution, span {!phase}s carry two extra dimensions: a
    dense index ({!phase_index}) and a privilege {!domain}
    ({!phase_domain}), so an attribution context is (domain x phase) with
    the domain implied by the phase. *)

type emc_kind = Mmu | Cr | Msr | Idt | Smap | Ghci

type domain = User | Kernel | Monitor | Host
(** Privilege domains: who the virtual CPU is working for when time passes.
    [User] is sandbox/workload execution, [Kernel] the untrusted guest
    kernel, [Monitor] Erebor's virtual privileged mode, and [Host] the
    hypervisor side of a VM exit. *)

val n_domains : int
val all_domains : domain list

val domain_name : domain -> string

(** Span phases: the coarse lifecycle spans (machine assembly, kernel-image
    byte scan, attested channel handshake, workload body) plus the
    fine-grained handler/service phases the cycle-attribution profiler
    decomposes a run into. *)
type phase =
  | Boot                (** Machine assembly. *)
  | Scan                (** Kernel-image byte scan. *)
  | Attest              (** Attested-channel handshake. *)
  | Run                 (** Workload body. *)
  | Emc_gate            (** EMC entry/exit round trip (the gate itself). *)
  | Svc_mmu             (** EMC service body, per privop kind. *)
  | Svc_cr
  | Svc_msr
  | Svc_idt
  | Svc_smap
  | Svc_ghci
  | Ve_handler          (** #VE exit + host round trip. *)
  | Pf_handler          (** Page-fault service. *)
  | Timer_handler       (** Timer-IRQ delivery. *)
  | Syscall_dispatch    (** Syscall entry + kernel dispatch. *)
  | Channel_crypto      (** Attested-channel seal/open. *)
  | Scheduler           (** Context switch. *)
  | Exit_interpose      (** Monitor exit interposition. *)

val n_phases : int
val phase_index : phase -> int
(** Dense, stable index in [0, n_phases). *)

val phase_of_index : int -> phase
(** Inverse of {!phase_index}; raises on out-of-range input. *)

val phase_name : phase -> string
val phase_domain : phase -> domain
(** The privilege domain a phase's cycles are attributed to. *)

val gate_phase : emc_kind -> phase
(** The EMC service-body phase for a privop kind ([Mmu] -> [Svc_mmu], ...). *)

type kind =
  | Emc_entry            (** One gate round trip; arg = measured cycles. *)
  | Emc of emc_kind      (** One privop service; arg = service cycles charged. *)
  | Syscall              (** arg = syscall code. *)
  | Page_fault           (** arg = faulting address. *)
  | Segfault             (** arg = faulting address. *)
  | Timer_irq
  | Ve_exit
  | Context_switch       (** arg = next task's tid. *)
  | Tdcall               (** arg = measured cycles. *)
  | Vmcall               (** arg = measured cycles. *)
  | Tlb_fill             (** arg = virtual address. *)
  | Fault_raised         (** arg = hardware vector. *)
  | Mmu_deny
  | Channel_send         (** arg = payload bytes. *)
  | Channel_recv         (** arg = payload bytes. *)
  | Sandbox_create       (** arg = sandbox id. *)
  | Sandbox_seal         (** arg = sandbox id. *)
  | Sandbox_kill         (** arg = sandbox id. *)
  | Sandbox_exit         (** arg = sandbox id. *)
  | Req_begin            (** Session window opens; arg = session id. *)
  | Req_end              (** Session window closes; arg = session id. *)
  | Slo_alert            (** SLO burn-rate alert transition; arg =
                             [objective index lsl 1 lor fired]. No in-tree
                             emitter: kept because it is wire index 26 of
                             the journal format and of {!all}. *)
  | Health_transition    (** Health state change; arg =
                             [subject id lsl 2 lor state index]. No in-tree
                             emitter: kept as wire index 27. *)
  | Span_begin of phase
  | Span_end of phase

type event = { kind : kind; ts : int; arg : int }
(** [ts] is the virtual-cycle timestamp at emission. *)

val n_kinds : int
val index : kind -> int
(** Dense, stable index in [0, n_kinds). *)

val kind_of_index : int -> kind
(** Inverse of {!index}; raises on out-of-range input. Used by offline
    readers ({!Journal}) to rehydrate events from their wire indices. *)

val name : kind -> string
(** Stable wire name ("emc.mmu", "page_fault", ...; span kinds are
    ["<phase>.begin"] / ["<phase>.end"]). Injective over {!all}. *)

(** {2 Preallocated constants (allocation-free emission)} *)

val emc_mmu : kind
val emc_cr : kind
val emc_msr : kind
val emc_idt : kind
val emc_smap : kind
val emc_ghci : kind

val emc_event : emc_kind -> kind
(** The preallocated [Emc k] constant for a privop kind. *)

val span_begin : phase -> kind
val span_end : phase -> kind

val all_phases : phase list
val all : kind list
(** Every kind, in {!index} order. *)

val pp_event : Format.formatter -> event -> unit
