let hw_key = Crypto.Sha256.digest_string "erebor-sim hardware key"
let firmware = Bytes.of_string "OVMF reference firmware"

(* The guest kernel image that gets scanned at stage-two boot. *)
let kernel_image =
  {
    Hw.Image.entry = 0x1000;
    sections =
      [
        { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true; writable = false;
          data =
            Hw.Isa.assemble
              [ Hw.Isa.Endbr; Hw.Isa.Mov_imm (Hw.Isa.R0, 0); Hw.Isa.Call 2;
                Hw.Isa.Syscall; Hw.Isa.Iret; Hw.Isa.Cpuid; Hw.Isa.Clac; Hw.Isa.Ret ] };
        { Hw.Image.name = ".rodata"; vaddr = 0x10000; executable = false; writable = false;
          data = Bytes.make 128 'r' };
      ];
  }

let timer_period = 2_100_000 (* 1 kHz at 2.1 GHz *)
let io_chunk = 16384
let decrypt_cycles_per_byte = 2
let spin_waste = 9000 (* busy-wait burn when a LibOS spinlock contends *)
let tlb_refill_tax = 400
(* Downstream cost of the TLB flush each monitor MMU update performs: the
   working set re-faults into the TLB. Charged per EMC-mode PTE store at the
   event level so Table 4's per-instruction microcosts stay calibrated. *)
let scrub_cycles_per_page = 60

type t = {
  setting : Config.setting;
  mem : Hw.Phys_mem.t;
  clock : Hw.Cycles.clock;
  cpu : Hw.Cpu.t;
  td : Tdx.Td_module.t;
  host : Vmm.Host.t;
  kern : Kernel.t;
  monitor : Erebor.Monitor.t option;
  mgr : Erebor.Sandbox.manager option;
  proxy : Kernel.Task.t;
  proxy_buf : int;
  proxy_fd : int;
  scratch_slots : int array; (* leaf PTE addresses for packet-buffer churn *)
  copy_scratch : bytes; (* reusable landing page for proxy packet drains *)
  counters : Obs.Counter.t;
      (* Machine-wide counter view, based before any component boots:
         {!snapshot} is derived entirely from this event stream. *)
}

let kern t = t.kern
let manager t = t.mgr
let clock t = t.clock
let obs t = t.cpu.Hw.Cpu.obs
let counters t = t.counters

let page_size = Hw.Phys_mem.page_size

let create ?obs ?journal ?window ?sketches ?(backend = Erebor.Isolation.Pks)
    ?(frames = 262144) ?(cma_frames = 65536) ?(reserved_frames = 256)
    ~setting () =
  let mem = Hw.Phys_mem.create ~frames in
  let clock = Hw.Cycles.clock () in
  let obs = match obs with Some e -> e | None -> Obs.Emitter.create () in
  (* The flight recorder attaches first so boot events land in the journal
     before any other sink sees them. *)
  (match journal with
  | Some w -> Obs.Journal.Writer.attach ~machine:"sim" w obs
  | None -> ());
  (* Take the machine's counter view before anything boots so every event
     from assembly onward is counted (a view, not a sink: the emitter
     counts on its own, the view remembers where this machine began). *)
  let counters = Obs.Counter.attach obs (Obs.Counter.create ()) in
  (match window with
  | Some w -> ignore (Obs.Window.attach obs w)
  | None -> ());
  (match sketches with
  | Some f -> ignore (Obs.Sketch.Family.attach obs f)
  | None -> ());
  Obs.with_span obs ~now:(fun () -> Hw.Cycles.now clock) Obs.Trace.Boot
  @@ fun () ->
  let cpu = Hw.Cpu.create ~obs ~id:0 ~mem ~clock ~timer_period () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let monitor =
    if Config.has_monitor setting then
      Some
        (Erebor.Monitor.install ~backend ~cpu ~mem ~td ~firmware ~monitor_frames:32
           ~device_shared_frames:64 ())
    else None
  in
  let kern =
    match monitor with
    | Some m when Config.emc_privops setting -> (
        match
          Erebor.Monitor.boot_kernel m ~kernel_image ~reserved_frames ~cma_frames
        with
        | Ok k -> k
        | Error e -> failwith ("Machine.create: " ^ e))
    | Some _ | None ->
        let privops = Kernel.Privops.native ~cpu ~td in
        Kernel.boot ~mem ~cpu ~td ~privops ~reserved_frames ~cma_frames
  in
  let mgr =
    match monitor with
    | Some m -> Some (Erebor.Sandbox.create_manager ~monitor:m ~kern)
    | None -> None
  in
  (* The untrusted proxy / background program: owns a user buffer for
     syscall I/O and a scratch region whose PTEs model packet-buffer
     churn. *)
  let proxy = Kernel.create_task kern ~name:"proxy" ~kind:Kernel.Task.Normal in
  let proxy_buf =
    match Kernel.mmap kern proxy ~len:(4 * io_chunk) ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
    | Ok a -> a
    | Error e -> failwith e
  in
  (match Kernel.populate kern proxy ~start:proxy_buf ~len:(4 * io_chunk) with
  | Ok () -> ()
  | Error e -> failwith e);
  let scratch =
    match Kernel.mmap kern proxy ~len:(16 * page_size) ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
    | Ok a -> a
    | Error e -> failwith e
  in
  (match Kernel.populate kern proxy ~start:scratch ~len:(16 * page_size) with
  | Ok () -> ()
  | Error e -> failwith e);
  let scratch_slots =
    Array.init 16 (fun i ->
        match
          Hw.Page_table.leaf_addr mem ~root_pfn:proxy.Kernel.Task.root_pfn
            (scratch + (i * page_size))
        with
        | Some addr -> addr
        | None -> failwith "Machine.create: scratch leaf missing")
  in
  (* One shared, never-written sink buffer: readers get a (read-only) view
     and writers are discarded, so steady-state I/O never allocates. *)
  let net_sink = Bytes.make io_chunk '\000' in
  Kernel.Fs.register_special kern.Kernel.fs "/dev/net-sink"
    ~read:(fun () -> net_sink)
    ~write:(fun _ ~len:_ -> ());
  let proxy_fd = Kernel.Task.alloc_fd proxy "/dev/net-sink" in
  {
    setting; mem; clock; cpu; td; host; kern; monitor; mgr; proxy; proxy_buf;
    proxy_fd; scratch_slots; copy_scratch = Bytes.create page_size; counters;
  }

(* Every field below is a per-kind count from the machine's counter view;
   the modules' own mirrors (kernel stats, gate count, guard denials) are
   kept only for cross-checking, never read here. *)
let snapshot t =
  let now = Hw.Cycles.now t.clock in
  let c k = Obs.Counter.count t.counters k in
  {
    Stats.cycles = now;
    seconds = Hw.Cycles.to_seconds now;
    page_faults = c Obs.Trace.Page_fault;
    timer_irqs = c Obs.Trace.Timer_irq;
    ve_exits = c Obs.Trace.Ve_exit;
    syscalls = c Obs.Trace.Syscall;
    emc_total = c Obs.Trace.Emc_entry;
    emc_mmu = c Obs.Trace.emc_mmu;
    emc_cr = c Obs.Trace.emc_cr;
    emc_msr = c Obs.Trace.emc_msr;
    emc_idt = c Obs.Trace.emc_idt;
    emc_smap = c Obs.Trace.emc_smap;
    emc_ghci = c Obs.Trace.emc_ghci;
    context_switches = c Obs.Trace.Context_switch;
    mmu_denies = c Obs.Trace.Mmu_deny;
  }

type ops = {
  compute : int -> unit;
  parallel : total:int -> sync_ops:int -> unit;
  sync_op : contended:bool -> unit;
  touch_confined : page:int -> unit;
  touch_common : page:int -> unit;
  cold_fault : unit -> unit;
  pte_churn : n:int -> unit;
  service : unit -> unit;
  signal : unit -> unit;
  mmap_cycle : pages:int -> unit;
  fork_exit : unit -> unit;
  fs_io : write:bool -> len:int -> unit;
  host_io : bytes:int -> unit;
  cpuid : unit -> unit;
  recv_input : unit -> bytes;
  send_output : bytes -> unit;
  rng : Crypto.Drbg.t;
}

type spec = {
  name : string;
  sandboxed : bool;
  timer_hz : int;
  init_compute : int;
  confined_bytes : int;
  nominal_confined_mb : int;
  common : (string * int * int) option;
  threads : int;
  contention : float;
  input : bytes;
  output_bucket : int;
  body : ops -> unit;
}

type run_result = {
  setting : Config.setting;
  init_cycles : int;
  run_cycles : int;
  stats : Stats.snapshot;
  output : bytes;
  wire_output_len : int;
  killed : string option;
  common_frames : int;
}

(* A session's mutable context: which task runs, where the regions are. *)
type session = {
  machine : t;
  mutable cold_cursor : int;
  task : Kernel.Task.t;
  sb : Erebor.Sandbox.t option;
  libos : Libos.t option;
  confined_base : int;
  confined_pages : int;
  common_base : int;    (* 0 when absent *)
  common_pages : int;
  channel : Erebor.Channel.Server.t option;
  io_buf : int;   (* user buffer mapped in [task]'s space (0 in sandboxes) *)
  io_fd : int;
  native_output : Buffer.t;
  spec : spec;
}

(* Attribution spans at the machine layer. Machine- and kernel-level spans
   for the same logical handler nest; the Attrib sink collapses same-phase
   nesting, so e.g. [fault_on] plus [Kernel.handle_page_fault] read as one
   [Pf_handler] context. Every bracket here runs per event, so none takes a
   closure: [span1] passes its body's one operand through, a body with
   several operands has both exit arms written out, and the end is emitted
   on the exception path too. *)
let[@inline] emit_now m kind =
  Obs.Emitter.emit m.cpu.Hw.Cpu.obs kind ~ts:(Hw.Cycles.now m.clock) ~arg:0

let span1 m phase f a =
  emit_now m (Obs.Trace.span_begin phase);
  match f a with
  | v ->
      emit_now m (Obs.Trace.span_end phase);
      v
  | exception e ->
      emit_now m (Obs.Trace.span_end phase);
      raise e

(* A span whose whole body is one clock charge. *)
let charged_span m phase cycles =
  emit_now m (Obs.Trace.span_begin phase);
  Hw.Cycles.advance m.clock cycles;
  emit_now m (Obs.Trace.span_end phase)

let pf_begin = Obs.Trace.span_begin Obs.Trace.Pf_handler
let pf_end = Obs.Trace.span_end Obs.Trace.Pf_handler
let sched_begin = Obs.Trace.span_begin Obs.Trace.Scheduler
let sched_end = Obs.Trace.span_end Obs.Trace.Scheduler

let tlb_tax s n =
  if Config.emc_privops s.machine.setting then
    Hw.Cycles.advance s.machine.clock (n * tlb_refill_tax)

(* Exit interposition (§6.2): IA32_LSTAR and the IDT point at the monitor.
   The syscall path is a streamlined re-vector (inspect and forward); the
   exception/interrupt path runs the full gate pair — state capture, #INT
   gate, return trampoline. *)
(* The interpose bodies are straight-line clock advances, so the span
   brackets are emitted inline: these run on every syscall/exception under
   exit interposition and must not build a closure per event. *)
let interpose_begin = Obs.Trace.span_begin Obs.Trace.Exit_interpose
let interpose_end = Obs.Trace.span_end Obs.Trace.Exit_interpose

let interpose_syscall s =
  let m = s.machine in
  if Config.interposes_exits m.setting then begin
    let obs = m.cpu.Hw.Cpu.obs in
    Obs.Emitter.emit obs interpose_begin ~ts:(Hw.Cycles.now m.clock) ~arg:0;
    Hw.Cycles.advance m.clock Hw.Cycles.Cost.monitor_exit_inspect;
    Obs.Emitter.emit obs interpose_end ~ts:(Hw.Cycles.now m.clock) ~arg:0
  end

let interpose_exception s =
  let m = s.machine in
  if Config.interposes_exits m.setting then begin
    let obs = m.cpu.Hw.Cpu.obs in
    Obs.Emitter.emit obs interpose_begin ~ts:(Hw.Cycles.now m.clock) ~arg:0;
    Hw.Cycles.advance m.clock
      ((2 * Hw.Cycles.Cost.emc_roundtrip) + Hw.Cycles.Cost.monitor_exit_inspect);
    Obs.Emitter.emit obs interpose_end ~ts:(Hw.Cycles.now m.clock) ~arg:0
  end

let timer_body s =
  let m = s.machine in
  Hw.Apic.acknowledge m.cpu.Hw.Cpu.apic;
  interpose_exception s;
  match (s.sb, Config.interposes_exits m.setting) with
  | Some sb, true when Erebor.Sandbox.phase sb = Erebor.Sandbox.Data_loaded ->
      Erebor.Sandbox.timer_tick (Option.get m.mgr) sb
  | _ -> Kernel.timer_interrupt m.kern

let deliver_timer s = span1 s.machine Obs.Trace.Timer_handler timer_body s

(* Advance virtual time, delivering timer interrupts as their deadlines
   pass (interrupts arrive between instructions, not during them). *)
let rec advance s n =
  if n > 0 then begin
    let m = s.machine in
    let until = Hw.Apic.deadline m.cpu.Hw.Cpu.apic - Hw.Cycles.now m.clock in
    if n < until then Hw.Cycles.advance m.clock n
    else begin
      Hw.Cycles.advance m.clock (max 0 until);
      deliver_timer s;
      advance s (n - max 0 until)
    end
  end

let zero_fill_cost = 600 (* demand-zero page clearing, same in every setting *)

let fault_body s task addr kind =
  let m = s.machine in
  Hw.Cycles.advance m.clock zero_fill_cost;
  tlb_tax s 1;
  interpose_exception s;
  match (s.sb, m.mgr) with
  | Some sb, Some mgr ->
      (match Erebor.Sandbox.page_fault mgr sb ~addr ~kind with
      | Ok () -> ()
      | Error e -> failwith ("sandbox fault: " ^ e))
  | _ ->
      (match Kernel.handle_page_fault m.kern task ~addr ~kind with
      | Ok () -> ()
      | Error e -> failwith ("fault: " ^ e))

let fault_on s task addr kind =
  let m = s.machine in
  emit_now m pf_begin;
  match fault_body s task addr kind with
  | () -> emit_now m pf_end
  | exception e ->
      emit_now m pf_end;
      raise e

(* Reclaim one page (kernel page-cache behaviour): a legitimate MMU
   operation that, under Erebor, is one more EMC. The next touch of that
   page faults again — this is what sustains Table 6's runtime #PF rates. *)
let evict s base pages ~page =
  let m = s.machine in
  if pages > 0 then begin
    let addr = base + (page mod pages * page_size) in
    Hw.Page_table.unmap m.mem ~write_pte:m.kern.Kernel.privops.Kernel.Privops.write_pte
      ~root_pfn:s.task.Kernel.Task.root_pfn ~vaddr:addr
  end

let touch s base pages ~page ~kind =
  let m = s.machine in
  if pages > 0 then begin
    let addr = base + (page mod pages * page_size) in
    (match Kernel.resolve_pfn m.kern s.task ~addr with
    | Some _ -> ()
    | None -> fault_on s s.task addr kind);
    advance s 4
  end

let task_syscall s call =
  interpose_syscall s;
  Kernel.syscall s.machine.kern s.task call

(* Kernel file I/O on behalf of the session's task. Native programs and
   background servers own [io_buf] in their address space; a sandbox has no
   such path (its channel is the ioctl). *)
let fs_io s ~write ~len =
  if s.io_buf = 0 then invalid_arg "fs_io: not available inside a sandbox";
  let rec go remaining =
    if remaining > 0 then begin
      let chunk = min io_chunk remaining in
      let call =
        if write then
          Kernel.Syscall.Write { fd = s.io_fd; user_buf = s.io_buf; len = chunk }
        else Kernel.Syscall.Read { fd = s.io_fd; user_buf = s.io_buf; len = chunk }
      in
      (match task_syscall s call with
      | Kernel.Syscall.Rerr e -> failwith ("fs_io: " ^ e)
      | _ -> ());
      go (remaining - chunk)
    end
  in
  go len

(* A context switch to [root_pfn]: CR3 through the privops table, inside a
   [Scheduler] span. *)
let switch_to m ~root_pfn =
  emit_now m sched_begin;
  Hw.Cycles.advance m.clock Hw.Cycles.Cost.context_switch;
  match m.kern.Kernel.privops.Kernel.Privops.write_cr3 ~root_pfn with
  | () -> emit_now m sched_end
  | exception e ->
      emit_now m sched_end;
      raise e

(* Kick the device: a synchronous VM exit (#VE is an exception). *)
let ve_body s =
  let m = s.machine in
  interpose_exception s;
  Hw.Cycles.advance m.clock Hw.Cycles.Cost.ve_handling;
  Kernel.note_ve_exit m.kern;
  match m.kern.Kernel.privops.Kernel.Privops.tdcall (Tdx.Ghci.Vmcall Tdx.Ghci.Hlt) with
  | Tdx.Td_module.Ok_unit | Tdx.Td_module.Ok_int _ | Tdx.Td_module.Ok_bytes _ -> ()
  | Tdx.Td_module.Ok_report _ -> ()
  | Tdx.Td_module.Error_leaf e -> failwith ("host_io: " ^ e)

let host_io s ~bytes =
  let m = s.machine in
  let ops = m.kern.Kernel.privops in
  switch_to m ~root_pfn:m.proxy.Kernel.Task.root_pfn;
  (* The proxy shuffles the payload packet by packet: one syscall and one
     user copy per ~4 KiB, plus packet-buffer PTE churn in the stack. *)
  let packets = min 16 (max 1 (bytes / page_size)) in
  interpose_syscall s;
  ignore (Kernel.syscall m.kern m.proxy Kernel.Syscall.Getpid);
  for i = 0 to packets - 1 do
    interpose_syscall s;
    ignore (Kernel.syscall m.kern m.proxy Kernel.Syscall.Getpid);
    ops.Kernel.Privops.copy_from_user_into ~user_addr:m.proxy_buf
      ~buf:m.copy_scratch ~off:0 ~len:(min bytes page_size);
    let slot = m.scratch_slots.(i) in
    ops.Kernel.Privops.write_pte ~pte_addr:slot (Hw.Phys_mem.read_u64 m.mem slot)
  done;
  tlb_tax s packets;
  span1 m Obs.Trace.Ve_handler ve_body s;
  (* Back to the service's address space. *)
  switch_to m ~root_pfn:s.task.Kernel.Task.root_pfn

let sync_op s ~contended =
  let m = s.machine in
  if Config.uses_libos m.setting then begin
    Hw.Cycles.advance m.clock Hw.Cycles.Cost.spinlock_acquire;
    if contended then advance s spin_waste
  end
  else begin
    (* futex-style kernel synchronization *)
    ignore (Kernel.syscall m.kern s.task Kernel.Syscall.Getpid);
    if contended then Hw.Cycles.advance m.clock Hw.Cycles.Cost.context_switch
  end

let service s =
  match s.libos with
  | Some libos -> Libos.runtime_service libos
  | None -> ignore (task_syscall s Kernel.Syscall.Getpid)

(* LMBench-style micro operations (Fig. 8), all on the session's task. *)
let signal_op s =
  ignore (task_syscall s Kernel.Syscall.Getpid); (* kill *)
  interpose_exception s;
  Hw.Cycles.advance s.machine.clock Hw.Cycles.Cost.interrupt_delivery;
  ignore (task_syscall s Kernel.Syscall.Getpid) (* sigreturn *)

let mmap_cycle s ~pages =
  let m = s.machine in
  let len = pages * page_size in
  interpose_syscall s;
  match Kernel.mmap m.kern s.task ~len ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
  | Error e -> failwith ("mmap_cycle: " ^ e)
  | Ok addr ->
      charged_span m Obs.Trace.Syscall_dispatch Hw.Cycles.Cost.syscall_roundtrip;
      for i = 0 to pages - 1 do
        fault_on s s.task (addr + (i * page_size)) Hw.Fault.Write
      done;
      interpose_syscall s;
      charged_span m Obs.Trace.Syscall_dispatch Hw.Cycles.Cost.syscall_roundtrip;
      tlb_tax s pages;
      (match Kernel.munmap m.kern s.task ~addr with
      | Ok () -> ()
      | Error e -> failwith ("mmap_cycle: " ^ e))

let fork_exit s =
  let m = s.machine in
  interpose_syscall s;
  charged_span m Obs.Trace.Syscall_dispatch Hw.Cycles.Cost.syscall_roundtrip;
  let child = Kernel.fork_process m.kern s.task ~name:"forked" in
  interpose_syscall s;
  Kernel.exit_task m.kern child ~code:0;
  (* Release the child's address space so fork loops don't exhaust RAM. *)
  Kernel.Vma.iter
    (fun region ->
      match Kernel.munmap m.kern child ~addr:region.Kernel.Vma.start with
      | Ok () -> ()
      | Error _ -> ())
    child.Kernel.Task.vmas

let cpuid_op s =
  let m = s.machine in
  match (s.sb, m.mgr, Config.interposes_exits m.setting) with
  | Some sb, Some mgr, true -> ignore (Erebor.Sandbox.cpuid mgr sb ~leaf:1)
  | _ -> ignore (Kernel.cpuid m.kern s.task ~leaf:1)

let make_ops s rng =
  let threads = max 1 s.spec.threads in
  {
    compute = (fun n -> advance s n);
    parallel =
      (fun ~total ~sync_ops ->
        advance s (total / threads);
        for _ = 1 to sync_ops do
          let contended = Crypto.Drbg.float rng < s.spec.contention in
          sync_op s ~contended
        done);
    sync_op = (fun ~contended -> sync_op s ~contended);
    touch_confined =
      (fun ~page -> touch s s.confined_base s.confined_pages ~page ~kind:Hw.Fault.Write);
    touch_common =
      (fun ~page -> touch s s.common_base s.common_pages ~page ~kind:Hw.Fault.Read);
    pte_churn =
      (fun ~n ->
        let m = s.machine in
        let ops = m.kern.Kernel.privops in
        tlb_tax s n;
        for i = 0 to n - 1 do
          let slot = m.scratch_slots.(i mod Array.length m.scratch_slots) in
          ops.Kernel.Privops.write_pte ~pte_addr:slot (Hw.Phys_mem.read_u64 m.mem slot)
        done);
    cold_fault =
      (fun () ->
        (* Rotate through the largest data region, evicting before touching
           so every call produces exactly one demand fault. *)
        let base, pages, kind =
          if s.common_pages > 0 then (s.common_base, s.common_pages, Hw.Fault.Read)
          else (s.confined_base, s.confined_pages, Hw.Fault.Write)
        in
        let page = s.cold_cursor in
        s.cold_cursor <- s.cold_cursor + 1;
        evict s base pages ~page;
        touch s base pages ~page ~kind);
    service = (fun () -> service s);
    signal = (fun () -> signal_op s);
    mmap_cycle = (fun ~pages -> mmap_cycle s ~pages);
    fork_exit = (fun () -> fork_exit s);
    fs_io = (fun ~write ~len -> fs_io s ~write ~len);
    host_io = (fun ~bytes -> host_io s ~bytes);
    cpuid = (fun () -> cpuid_op s);
    recv_input =
      (fun () ->
        match s.libos with
        | Some libos -> (
            match Libos.recv_input libos with
            | Ok b -> b
            | Error e -> failwith ("recv_input: " ^ e))
        | None ->
            fs_io s ~write:false ~len:(Bytes.length s.spec.input);
            Bytes.copy s.spec.input);
    send_output =
      (fun data ->
        match s.libos with
        | Some libos -> (
            match Libos.send_output libos data with
            | Ok () -> ()
            | Error e -> failwith ("send_output: " ^ e))
        | None ->
            fs_io s ~write:true ~len:(Bytes.length data);
            Buffer.add_bytes s.native_output data);
    rng;
  }

let input_region_bytes spec =
  Kernel.Layout.page_align_up (max page_size (Bytes.length spec.input + 64))

let init_native m spec =
  let task = Kernel.create_task m.kern ~name:spec.name ~kind:Kernel.Task.Normal in
  let conf = Kernel.Layout.page_align_up spec.confined_bytes in
  let confined_base =
    match Kernel.mmap m.kern task ~len:conf ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
    | Ok a -> a
    | Error e -> failwith e
  in
  (match Kernel.populate m.kern task ~start:confined_base ~len:conf with
  | Ok () -> ()
  | Error e -> failwith e);
  let common_base, common_pages =
    match spec.common with
    | None -> (0, 0)
    | Some (_, bytes, _) ->
        (* Demand-paged, like the sandbox's common region: pages fault in as
           the program streams through its model/database. *)
        let len = Kernel.Layout.page_align_up bytes in
        let base =
          match Kernel.mmap m.kern task ~len ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
          | Ok a -> a
          | Error e -> failwith e
        in
        (base, len / page_size)
  in
  let io_buf =
    match Kernel.mmap m.kern task ~len:io_chunk ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon with
    | Ok a -> a
    | Error e -> failwith e
  in
  (match Kernel.populate m.kern task ~start:io_buf ~len:io_chunk with
  | Ok () -> ()
  | Error e -> failwith e);
  let io_fd = Kernel.Task.alloc_fd task "/dev/net-sink" in
  {
    machine = m;
    cold_cursor = 0;
    task;
    sb = None;
    libos = None;
    confined_base;
    confined_pages = conf / page_size;
    common_base;
    common_pages;
    channel = None;
    io_buf;
    io_fd;
    native_output = Buffer.create 256;
    spec;
  }

let init_sandboxed m spec =
  let mgr = Option.get m.mgr in
  let input_bytes = input_region_bytes spec in
  let conf = Kernel.Layout.page_align_up spec.confined_bytes in
  let sb =
    match
      Erebor.Sandbox.create_sandbox mgr ~name:spec.name
        ~confined_budget:(input_bytes + conf)
    with
    | Ok sb -> sb
    | Error e -> failwith e
  in
  (* Region 0: where the monitor installs client data. *)
  (match Erebor.Sandbox.declare_confined mgr sb ~len:input_bytes with
  | Ok _ -> ()
  | Error e -> failwith e);
  let libos =
    match
      Libos.boot ~mgr ~sb ~heap_bytes:conf ~threads:spec.threads ~preload:[]
    with
    | Ok l -> l
    | Error e -> failwith e
  in
  let common_base, common_pages =
    match spec.common with
    | None -> (0, 0)
    | Some (name, bytes, _) ->
        let len = Kernel.Layout.page_align_up bytes in
        let base =
          match Erebor.Sandbox.attach_common mgr sb ~name ~size:len with
          | Ok a -> a
          | Error e -> failwith e
        in
        (base, len / page_size)
  in
  (* Install the client data. Full Erebor runs the attested channel; the
     ablations install directly. *)
  let channel =
    match m.setting with
    | Config.Erebor_full ->
        (* The session window opens at the client: everything from the
           handshake to the sealed response belongs to it. *)
        Obs.Emitter.emit m.cpu.Hw.Cpu.obs Obs.Trace.Req_begin
          ~ts:(Hw.Cycles.now m.clock) ~arg:(Erebor.Sandbox.id sb);
        Obs.with_span m.cpu.Hw.Cpu.obs
          ~now:(fun () -> Hw.Cycles.now m.clock)
          Obs.Trace.Attest
        @@ fun () ->
        let monitor = Option.get m.monitor in
        let rng_c = Crypto.Drbg.create ~seed:("client:" ^ spec.name) in
        let rng_s = Crypto.Drbg.create ~seed:("monitor:" ^ spec.name) in
        let expected =
          (Erebor.Monitor.tdreport monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
        in
        let client = Erebor.Channel.Client.create ~rng:rng_c ~hw_key ~expected_mrtd:expected in
        let hello = Erebor.Channel.Client.hello client in
        let server, server_hello =
          match Erebor.Channel.Server.accept ~monitor ~rng:rng_s ~client_hello:hello with
          | Ok pair -> pair
          | Error e -> failwith e
        in
        (match Erebor.Channel.Client.finish client ~server_hello with
        | Ok () -> ()
        | Error e -> failwith e);
        let sealed = Erebor.Channel.Client.seal_request client spec.input in
        let plaintext =
          match Erebor.Channel.Server.open_request server sealed with
          | Ok p -> p
          | Error e -> failwith e
        in
        charged_span m Obs.Trace.Channel_crypto
          (decrypt_cycles_per_byte * Bytes.length plaintext);
        (match Erebor.Sandbox.load_client_data mgr sb plaintext with
        | Ok _ -> ()
        | Error e -> failwith e);
        Some server
    | Config.Libos_only | Config.Erebor_mmu | Config.Erebor_exit ->
        (match Erebor.Sandbox.load_client_data mgr sb spec.input with
        | Ok _ -> ()
        | Error e -> failwith e);
        None
    | Config.Native -> assert false
  in
  {
    machine = m;
    cold_cursor = 0;
    task = Erebor.Sandbox.main_task sb;
    sb = Some sb;
    libos = Some libos;
    confined_base = Libos.heap_base libos;
    confined_pages = conf / page_size;
    common_base;
    common_pages;
    channel;
    io_buf = 0;
    io_fd = -1;
    native_output = Buffer.create 16;
    spec;
  }

let run m spec =
  if spec.timer_hz > 0 then
    Hw.Apic.set_period m.cpu.Hw.Cpu.apic (2_100_000_000 / spec.timer_hz);
  let t0 = Hw.Cycles.now m.clock in
  (* Service initialization work (loading models/databases): identical in
     every setting. *)
  Hw.Cycles.advance m.clock spec.init_compute;
  let s =
    if spec.sandboxed && Config.uses_libos m.setting then init_sandboxed m spec
    else init_native m spec
  in
  (* Run in the service task's address space. *)
  m.kern.Kernel.privops.Kernel.Privops.write_cr3 ~root_pfn:s.task.Kernel.Task.root_pfn;
  let t1 = Hw.Cycles.now m.clock in
  let before = snapshot m in
  let rng = Crypto.Drbg.create ~seed:("workload:" ^ spec.name) in
  Obs.with_span m.cpu.Hw.Cpu.obs
    ~now:(fun () -> Hw.Cycles.now m.clock)
    Obs.Trace.Run
    (fun () -> spec.body (make_ops s rng));
  let after = snapshot m in
  let t2 = Hw.Cycles.now m.clock in
  (* Collect and return results. *)
  let output, wire_len =
    match (s.sb, m.mgr) with
    | Some sb, Some mgr -> (
        let raw = Erebor.Sandbox.take_output mgr sb in
        match s.channel with
        | Some server ->
            charged_span m Obs.Trace.Channel_crypto
              (decrypt_cycles_per_byte * Bytes.length raw);
            let sealed =
              Erebor.Channel.Server.seal_response server ~bucket:spec.output_bucket raw
            in
            (* Close the session window: the client has its sealed
               response in hand. *)
            Obs.Emitter.emit m.cpu.Hw.Cpu.obs Obs.Trace.Req_end
              ~ts:(Hw.Cycles.now m.clock) ~arg:(Erebor.Sandbox.id sb);
            (raw, Bytes.length sealed)
        | None -> (raw, Bytes.length raw))
    | _ -> (Buffer.to_bytes s.native_output, Buffer.length s.native_output)
  in
  let killed = match s.sb with Some sb -> Erebor.Sandbox.kill_reason sb | None -> None in
  let common_frames =
    match (m.mgr, spec.common) with
    | Some mgr, Some (name, _, _) -> Erebor.Sandbox.common_instance_frames mgr ~name
    | _ -> 0
  in
  (* Terminal scrub under full Erebor. *)
  (match (s.sb, m.mgr, m.setting) with
  | Some sb, Some mgr, Config.Erebor_full ->
      Hw.Cycles.advance m.clock
        (scrub_cycles_per_page * (s.confined_pages + (input_region_bytes spec / page_size)));
      Erebor.Sandbox.terminate mgr sb
  | _ -> ());
  {
    setting = m.setting;
    init_cycles = t1 - t0;
    run_cycles = t2 - t1;
    stats = Stats.diff ~before ~after;
    output;
    wire_output_len = wire_len;
    killed;
    common_frames;
  }

let run_fresh ?backend ?frames ?cma_frames ~setting spec =
  let m = create ?backend ?frames ?cma_frames ~setting () in
  run m spec
