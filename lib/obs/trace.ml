(* The event taxonomy: every privilege-relevant occurrence in the simulated
   stack, from hardware faults up to sandbox lifecycle transitions. The type
   is deliberately flat and integer-indexable so sinks can use plain arrays
   and emission never allocates on the hot path (see the preallocated
   constants below). *)

type emc_kind = Mmu | Cr | Msr | Idt | Smap | Ghci

(* Privilege domains for cycle attribution: who the virtual CPU is working
   for when time passes. [User] is sandbox/workload execution, [Kernel] the
   untrusted guest kernel, [Monitor] Erebor's virtual privileged mode, and
   [Host] the hypervisor side of a VM exit. *)
type domain = User | Kernel | Monitor | Host

let n_domains = 4
let all_domains = [ User; Kernel; Monitor; Host ]

let domain_name = function
  | User -> "user"
  | Kernel -> "kernel"
  | Monitor -> "monitor"
  | Host -> "host"

(* Span phases. The first four are the coarse lifecycle spans; the rest are
   the fine-grained handler/service phases the cycle-attribution profiler
   decomposes a run into. Every phase belongs to exactly one privilege
   domain ({!phase_domain}), so an attribution context is (domain x phase)
   with the domain implied by the phase. *)
type phase =
  | Boot                (* machine assembly *)
  | Scan                (* kernel-image byte scan *)
  | Attest              (* attested-channel handshake *)
  | Run                 (* workload body *)
  | Emc_gate            (* EMC entry/exit round trip (Fig. 5 gate code) *)
  | Svc_mmu             (* EMC service body, per privop kind *)
  | Svc_cr
  | Svc_msr
  | Svc_idt
  | Svc_smap
  | Svc_ghci
  | Ve_handler          (* #VE exit + host round trip *)
  | Pf_handler          (* page-fault service *)
  | Timer_handler       (* timer-IRQ delivery *)
  | Syscall_dispatch    (* syscall entry + kernel dispatch *)
  | Channel_crypto      (* attested-channel seal/open *)
  | Scheduler           (* context switch *)
  | Exit_interpose      (* monitor exit interposition (§6.2) *)

let n_phases = 18

let phase_index = function
  | Boot -> 0
  | Scan -> 1
  | Attest -> 2
  | Run -> 3
  | Emc_gate -> 4
  | Svc_mmu -> 5
  | Svc_cr -> 6
  | Svc_msr -> 7
  | Svc_idt -> 8
  | Svc_smap -> 9
  | Svc_ghci -> 10
  | Ve_handler -> 11
  | Pf_handler -> 12
  | Timer_handler -> 13
  | Syscall_dispatch -> 14
  | Channel_crypto -> 15
  | Scheduler -> 16
  | Exit_interpose -> 17

let all_phases =
  [
    Boot; Scan; Attest; Run; Emc_gate;
    Svc_mmu; Svc_cr; Svc_msr; Svc_idt; Svc_smap; Svc_ghci;
    Ve_handler; Pf_handler; Timer_handler; Syscall_dispatch; Channel_crypto;
    Scheduler; Exit_interpose;
  ]

let phases_arr = Array.of_list all_phases
let phase_of_index i = phases_arr.(i)

let phase_name = function
  | Boot -> "boot"
  | Scan -> "scan"
  | Attest -> "attest"
  | Run -> "run"
  | Emc_gate -> "gate"
  | Svc_mmu -> "svc.mmu"
  | Svc_cr -> "svc.cr"
  | Svc_msr -> "svc.msr"
  | Svc_idt -> "svc.idt"
  | Svc_smap -> "svc.smap"
  | Svc_ghci -> "svc.ghci"
  | Ve_handler -> "ve"
  | Pf_handler -> "pf"
  | Timer_handler -> "timer"
  | Syscall_dispatch -> "syscall"
  | Channel_crypto -> "crypto"
  | Scheduler -> "sched"
  | Exit_interpose -> "interpose"

let phase_domain = function
  | Boot -> Kernel
  | Scan -> Monitor
  | Attest -> Monitor
  | Run -> User
  | Emc_gate -> Monitor
  | Svc_mmu | Svc_cr | Svc_msr | Svc_idt | Svc_smap | Svc_ghci -> Monitor
  | Ve_handler -> Host
  | Pf_handler -> Kernel
  | Timer_handler -> Kernel
  | Syscall_dispatch -> Kernel
  | Channel_crypto -> Monitor
  | Scheduler -> Kernel
  | Exit_interpose -> Monitor

let gate_phase = function
  | Mmu -> Svc_mmu
  | Cr -> Svc_cr
  | Msr -> Svc_msr
  | Idt -> Svc_idt
  | Smap -> Svc_smap
  | Ghci -> Svc_ghci

type kind =
  | Emc_entry            (* one gate round trip; arg = measured cycles *)
  | Emc of emc_kind      (* one privop service; arg = service cycles charged *)
  | Syscall              (* arg = syscall code *)
  | Page_fault           (* arg = faulting address *)
  | Segfault             (* arg = faulting address *)
  | Timer_irq
  | Ve_exit
  | Context_switch       (* arg = next task's tid *)
  | Tdcall               (* arg = measured cycles *)
  | Vmcall               (* arg = measured cycles *)
  | Tlb_fill             (* arg = virtual address *)
  | Fault_raised         (* arg = hardware vector *)
  | Mmu_deny
  | Channel_send         (* arg = payload bytes *)
  | Channel_recv         (* arg = payload bytes *)
  | Sandbox_create       (* arg = sandbox id *)
  | Sandbox_seal         (* arg = sandbox id *)
  | Sandbox_kill         (* arg = sandbox id *)
  | Sandbox_exit         (* arg = sandbox id *)
  | Req_begin            (* arg = session id *)
  | Req_end              (* arg = session id *)
  | Slo_alert            (* arg = objective index lsl 1 lor fired; no emitter,
                            kept as wire index 26 *)
  | Health_transition    (* arg = subject id lsl 2 lor state index; no
                            emitter, kept as wire index 27 *)
  | Span_begin of phase
  | Span_end of phase

type event = { kind : kind; ts : int; arg : int }

let n_span_base = 28
let n_kinds = n_span_base + (2 * n_phases)

let index = function
  | Emc_entry -> 0
  | Emc Mmu -> 1
  | Emc Cr -> 2
  | Emc Msr -> 3
  | Emc Idt -> 4
  | Emc Smap -> 5
  | Emc Ghci -> 6
  | Syscall -> 7
  | Page_fault -> 8
  | Segfault -> 9
  | Timer_irq -> 10
  | Ve_exit -> 11
  | Context_switch -> 12
  | Tdcall -> 13
  | Vmcall -> 14
  | Tlb_fill -> 15
  | Fault_raised -> 16
  | Mmu_deny -> 17
  | Channel_send -> 18
  | Channel_recv -> 19
  | Sandbox_create -> 20
  | Sandbox_seal -> 21
  | Sandbox_kill -> 22
  | Sandbox_exit -> 23
  | Req_begin -> 24
  | Req_end -> 25
  | Slo_alert -> 26
  | Health_transition -> 27
  | Span_begin p -> n_span_base + phase_index p
  | Span_end p -> n_span_base + n_phases + phase_index p

(* Span kinds get their own wire names so [name] is injective: a begin, its
   end and a same-named event kind (the [syscall] phase vs [Syscall]) never
   share a label. Phase names stay as they are for span-level reports. *)
let span_begin_names = Array.map (fun p -> phase_name p ^ ".begin") phases_arr
let span_end_names = Array.map (fun p -> phase_name p ^ ".end") phases_arr

let name = function
  | Emc_entry -> "emc"
  | Emc Mmu -> "emc.mmu"
  | Emc Cr -> "emc.cr"
  | Emc Msr -> "emc.msr"
  | Emc Idt -> "emc.idt"
  | Emc Smap -> "emc.smap"
  | Emc Ghci -> "emc.ghci"
  | Syscall -> "syscall"
  | Page_fault -> "page_fault"
  | Segfault -> "segfault"
  | Timer_irq -> "timer_irq"
  | Ve_exit -> "ve_exit"
  | Context_switch -> "context_switch"
  | Tdcall -> "tdcall"
  | Vmcall -> "vmcall"
  | Tlb_fill -> "tlb_fill"
  | Fault_raised -> "fault"
  | Mmu_deny -> "mmu_deny"
  | Channel_send -> "channel.send"
  | Channel_recv -> "channel.recv"
  | Sandbox_create -> "sandbox.create"
  | Sandbox_seal -> "sandbox.seal"
  | Sandbox_kill -> "sandbox.kill"
  | Sandbox_exit -> "sandbox.exit"
  | Req_begin -> "req.begin"
  | Req_end -> "req.end"
  | Slo_alert -> "slo.alert"
  | Health_transition -> "health.transition"
  | Span_begin p -> span_begin_names.(phase_index p)
  | Span_end p -> span_end_names.(phase_index p)

(* Preallocated constants: [Emc _] and [Span_*] carry a payload, so naming
   them once here keeps every emission site allocation-free. *)
let emc_mmu = Emc Mmu
let emc_cr = Emc Cr
let emc_msr = Emc Msr
let emc_idt = Emc Idt
let emc_smap = Emc Smap
let emc_ghci = Emc Ghci

let emc_event = function
  | Mmu -> emc_mmu
  | Cr -> emc_cr
  | Msr -> emc_msr
  | Idt -> emc_idt
  | Smap -> emc_smap
  | Ghci -> emc_ghci

let span_begins = Array.map (fun p -> Span_begin p) phases_arr
let span_ends = Array.map (fun p -> Span_end p) phases_arr
let span_begin p = span_begins.(phase_index p)
let span_end p = span_ends.(phase_index p)

let all =
  [
    Emc_entry; emc_mmu; emc_cr; emc_msr; emc_idt; emc_smap; emc_ghci;
    Syscall; Page_fault; Segfault; Timer_irq; Ve_exit; Context_switch;
    Tdcall; Vmcall; Tlb_fill; Fault_raised; Mmu_deny;
    Channel_send; Channel_recv;
    Sandbox_create; Sandbox_seal; Sandbox_kill; Sandbox_exit;
    Req_begin; Req_end; Slo_alert; Health_transition;
  ]
  @ List.map span_begin all_phases
  @ List.map span_end all_phases

let kinds_arr = Array.of_list all
let kind_of_index i = kinds_arr.(i)

let pp_event fmt e =
  Fmt.pf fmt "%d %s %d" e.ts (name e.kind) e.arg
