type phase = Initializing | Data_loaded | Terminated

type confined_region = { start : int; len : int; base_pfn : int }

type common_instance = {
  shared : Mmu_guard.common; (* the guard's record for the instance name *)
  cls : Mmu_guard.frame_class;
      (* [Common shared], built once: classifying a fresh frame builds
         nothing *)
  size : int;
  frames : int array; (* page index -> pfn, -1 until first faulted in *)
  mutable populated : int; (* frames currently >= 0 *)
}

type t = {
  id : int;
  sb_name : string;
  policy : Policy.tenant;
  mutable phase : phase;
  main_task : Kernel.Task.t;
  mutable threads : Kernel.Task.t list;
  confined_budget : int;
  mutable confined : confined_region list;
  mutable commons : (int * common_instance) list; (* region start -> instance *)
  channel_fd : int;
  mutable input_addr : int;
  mutable input_len : int;
  output : Buffer.t;
  mutable kill_reason : string option;
  mutable pf_count : int;
  mutable timer_count : int;
  mutable ve_count : int;
}

type manager = {
  monitor : Monitor.t;
  kern : Kernel.t;
  mutable next_id : int;
  sandboxes : t Int_table.t;
  by_root : t Int_table.t;
  commons : (string, common_instance) Hashtbl.t;
  mutable mitigations : Mitigations.t option;
  irq_save : Hw.Cpu.save_area;
      (* the monitor's register slot for {!handle_interrupt} *)
  kernel_timer : unit -> unit;
      (* the OS timer handler, built once so {!timer_tick} builds no
         closure *)
}

let id sb = sb.id
let name sb = sb.sb_name
let phase sb = sb.phase
let main_task sb = sb.main_task
let threads sb = sb.threads
let kill_reason sb = sb.kill_reason
let channel_fd sb = sb.channel_fd
let confined_bytes sb = List.fold_left (fun acc r -> acc + r.len) 0 sb.confined
let exit_stats sb = (sb.pf_count, sb.timer_count, sb.ve_count)

let guard mgr = Monitor.guard mgr.monitor

(* Sandbox lifecycle events carry the sandbox id as argument. *)
let emit mgr kind ~arg = Hw.Cpu.emit mgr.kern.Kernel.cpu kind ~arg

(* Lifecycle transitions are security decisions too: they land in the audit
   chain (when one is attached) alongside the [Sandbox_*] bus events. *)
let audit mgr verdict detail =
  Obs.Emitter.audit_event mgr.kern.Kernel.cpu.Hw.Cpu.obs
    ~ts:(Hw.Cycles.now mgr.kern.Kernel.clock) ~category:"sandbox" ~verdict
    detail

(* Attribute a monitor-interposition cycle charge: the [Exit_interpose]
   span boundaries are emitted at the current clock around the advance. *)
let interpose_charge mgr cycles =
  emit mgr (Obs.Trace.span_begin Obs.Trace.Exit_interpose) ~arg:0;
  Hw.Cycles.advance mgr.kern.Kernel.clock cycles;
  emit mgr (Obs.Trace.span_end Obs.Trace.Exit_interpose) ~arg:0

let page_size = Hw.Phys_mem.page_size

(* Fault-frame provider: serve confined pages from the pinned contiguous
   range, common pages from the shared instance. Every miss is -1, the
   kernel's "no frame here". *)
let rec confined_frame regions addr =
  match regions with
  | [] -> -1
  | r :: rest ->
      if addr >= r.start && addr < r.start + r.len then
        r.base_pfn + ((addr - r.start) / page_size)
      else confined_frame rest addr

let instance_frame mgr inst index =
  let pfn = inst.frames.(index) in
  if pfn >= 0 then pfn
  else
    let pfn = Kernel.Alloc.alloc_pfn mgr.kern.Kernel.frame_alloc in
    if pfn >= 0 then begin
      (match Mmu_guard.classify (guard mgr) ~pfn inst.cls with
      | Ok () -> ()
      | Error e -> failwith ("frame_source: " ^ e));
      inst.frames.(index) <- pfn;
      inst.populated <- inst.populated + 1
    end;
    pfn

let rec common_frame mgr commons ~region_start ~index =
  match commons with
  | [] -> -1
  | (start, inst) :: rest ->
      if start = region_start then instance_frame mgr inst index
      else common_frame mgr rest ~region_start ~index

let frame_source mgr task region ~addr =
  match task.Kernel.Task.kind with
  | Kernel.Task.Normal -> -1
  | Kernel.Task.Sandboxed sid -> (
      match Int_table.find mgr.sandboxes sid with
      | exception Not_found -> -1
      | sb -> (
          match region.Kernel.Vma.kind with
          | Kernel.Vma.Confined -> confined_frame sb.confined addr
          | Kernel.Vma.Common ->
              let region_start = region.Kernel.Vma.start in
              common_frame mgr sb.commons ~region_start
                ~index:((addr - region_start) / page_size)
          | Kernel.Vma.Anon | Kernel.Vma.Stack | Kernel.Vma.File _ -> -1))

let usercopy_veto mgr () =
  let root = Hw.Cr.root_pfn mgr.kern.Kernel.cpu.Hw.Cpu.cr in
  match Int_table.find_opt mgr.by_root root with
  | Some sb when sb.phase = Data_loaded ->
      Some (Printf.sprintf "sandbox %d is sealed" sb.id)
  | Some _ | None -> None

let create_manager ~monitor ~kern =
  let mgr =
    {
      monitor;
      kern;
      next_id = 1;
      sandboxes = Int_table.create 8;
      by_root = Int_table.create 8;
      commons = Hashtbl.create 8;
      mitigations = None;
      irq_save = Hw.Cpu.save_area ();
      kernel_timer = (fun () -> Kernel.timer_interrupt kern);
    }
  in
  Kernel.set_frame_source kern (frame_source mgr);
  Monitor.set_usercopy_veto monitor (usercopy_veto mgr);
  mgr

let create_sandbox ?policy mgr ~name ~confined_budget =
  if confined_budget <= 0 then Error "confined budget must be positive"
  else begin
    let policy =
      match policy with Some p -> p | None -> Policy.default_tenant ~label:name
    in
    let sid = mgr.next_id in
    mgr.next_id <- sid + 1;
    let task = Kernel.create_task mgr.kern ~name ~kind:(Kernel.Task.Sandboxed sid) in
    Mmu_guard.register_sandbox_root (guard mgr) ~root_pfn:task.Kernel.Task.root_pfn
      ~sandbox:sid;
    let channel_fd = Kernel.Task.alloc_fd task "/dev/erebor-pseudo-io-dev" in
    let sb =
      {
        id = sid;
        sb_name = name;
        policy;
        phase = Initializing;
        main_task = task;
        threads = [];
        confined_budget;
        confined = [];
        commons = [];
        channel_fd;
        input_addr = 0;
        input_len = 0;
        output = Buffer.create 256;
        kill_reason = None;
        pf_count = 0;
        timer_count = 0;
        ve_count = 0;
      }
    in
    Int_table.replace mgr.sandboxes sid sb;
    Int_table.replace mgr.by_root task.Kernel.Task.root_pfn sb;
    emit mgr Obs.Trace.Sandbox_create ~arg:sid;
    audit mgr Obs.Audit.Info (fun () ->
        Printf.sprintf "create id=%d name=%s" sid sb.sb_name);
    Ok sb
  end

let spawn_thread mgr sb ~name =
  let thread = Kernel.clone_thread mgr.kern sb.main_task ~name in
  sb.threads <- thread :: sb.threads;
  thread

let declare_confined mgr sb ~len =
  let len = Kernel.Layout.page_align_up len in
  if sb.phase <> Initializing then Error "confined memory must be declared before data"
  else if confined_bytes sb + len > sb.confined_budget then
    Error "confined budget exceeded"
  else begin
    let pages = len / page_size in
    match Kernel.Alloc.alloc_contig mgr.kern.Kernel.cma pages with
    | None -> Error "CMA region exhausted"
    | Some base_pfn -> (
        (* Classify before any mapping so the MMU guard enforces ownership
           from the first install. *)
        let classify_all () =
          let rec go i =
            if i = pages then Ok ()
            else
              match
                Mmu_guard.classify (guard mgr) ~pfn:(base_pfn + i)
                  (Mmu_guard.Confined { owner = sb.id })
              with
              | Ok () -> go (i + 1)
              | Error e -> Error e
          in
          go 0
        in
        match classify_all () with
        | Error e -> Error e
        | Ok () -> (
            let start =
              Kernel.mmap mgr.kern sb.main_task ~len ~prot:Kernel.Vma.prot_rw
                ~kind:Kernel.Vma.Confined
            in
            if start < 0 then Error "mmap: address space exhausted"
            else begin
              sb.confined <- sb.confined @ [ { start; len; base_pfn } ];
              (* Pin: pre-fault every page now (init-time cost). *)
              match Kernel.populate mgr.kern sb.main_task ~start ~len with
              | Ok () -> Ok start
              | Error e -> Error e
            end))
  end

let attach_common mgr sb ~name ~size =
  if sb.phase <> Initializing then Error "common memory must attach before data"
  else if not sb.policy.Policy.allow_common then begin
    audit mgr Obs.Audit.Deny (fun () ->
        Printf.sprintf "attach_common id=%d %s: tenant policy forbids common memory"
          sb.id sb.policy.Policy.label);
    Error "tenant policy forbids common memory"
  end
  else
    let inst =
      match Hashtbl.find_opt mgr.commons name with
      | Some inst -> inst
      | None ->
          (* The frame table is sized once, here: a later attach must name
             the same size, so every fault indexes inside it. *)
          let pages = max 0 (Kernel.Layout.page_align_up size / page_size) in
          let shared = Mmu_guard.common (guard mgr) ~instance:name in
          let inst =
            { shared; cls = Mmu_guard.Common shared; size;
              frames = Array.make pages (-1); populated = 0 }
          in
          Hashtbl.replace mgr.commons name inst;
          inst
    in
    if inst.size <> size then begin
      audit mgr Obs.Audit.Deny (fun () ->
          Printf.sprintf "attach_common id=%d %s: instance %s has size %d, not %d"
            sb.id sb.policy.Policy.label name inst.size size);
      Error "common instance size mismatch"
    end
    else
      let start =
        Kernel.mmap mgr.kern sb.main_task ~len:(Kernel.Layout.page_align_up size)
          ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Common
      in
      if start < 0 then Error "mmap: address space exhausted"
      else begin
        sb.commons <- sb.commons @ [ (start, inst) ];
        Ok start
      end

let common_instance_frames mgr ~name =
  match Hashtbl.find_opt mgr.commons name with
  | Some inst -> inst.populated
  | None -> 0

let read_sandbox_bytes mgr sb ~addr ~len =
  ignore sb;
  (* Monitor-privileged read through the direct map of the resolved frames. *)
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let va = addr + !copied in
    let page = Kernel.Layout.page_align_down va in
    let pfn =
      match Kernel.resolve_pfn mgr.kern sb.main_task ~addr:page with
      | Some pfn -> pfn
      | None -> failwith "read_sandbox_bytes: unmapped"
    in
    let off = va - page in
    let chunk = min (page_size - off) (len - !copied) in
    Hw.Phys_mem.blit_to mgr.kern.Kernel.mem
      (Hw.Phys_mem.addr_of_pfn pfn + off)
      out ~off:!copied ~len:chunk;
    copied := !copied + chunk
  done;
  out

let write_sandbox_bytes mgr sb addr data =
  let len = Bytes.length data in
  let copied = ref 0 in
  while !copied < len do
    let va = addr + !copied in
    let page = Kernel.Layout.page_align_down va in
    let pfn =
      match Kernel.resolve_pfn mgr.kern sb.main_task ~addr:page with
      | Some pfn -> pfn
      | None -> failwith "write_sandbox_bytes: unmapped"
    in
    let off = va - page in
    let chunk = min (page_size - off) (len - !copied) in
    Hw.Phys_mem.blit_from mgr.kern.Kernel.mem
      (Hw.Phys_mem.addr_of_pfn pfn + off)
      data ~off:!copied ~len:chunk;
    copied := !copied + chunk
  done

let write_sandbox_bytes mgr sb ~addr data = write_sandbox_bytes mgr sb addr data

let kill mgr sb reason =
  sb.kill_reason <- Some reason;
  sb.phase <- Terminated;
  emit mgr Obs.Trace.Sandbox_kill ~arg:sb.id;
  audit mgr Obs.Audit.Kill (fun () ->
      Printf.sprintf "kill id=%d: %s" sb.id reason);
  Kernel.exit_task mgr.kern sb.main_task ~code:137;
  List.iter (fun th -> Kernel.exit_task mgr.kern th ~code:137) sb.threads

let load_client_data mgr sb data =
  if sb.phase <> Initializing then Error "sandbox not in initialization phase"
  else
    match sb.confined with
    | [] -> Error "no confined region declared"
    | { start; len; _ } :: _ ->
        if Bytes.length data > len then Error "client data exceeds confined region"
        else begin
          Monitor.interpose_user_exit mgr.monitor (fun () -> ());
          write_sandbox_bytes mgr sb ~addr:start data;
          sb.input_addr <- start;
          sb.input_len <- Bytes.length data;
          (* Seal every attached common instance (revoke write). *)
          List.iter
            (fun cname -> ignore (Mmu_guard.seal_common (guard mgr) ~instance:cname))
            (List.sort_uniq compare (List.map (fun (_, inst) -> Mmu_guard.common_name inst.shared) sb.commons));
          Monitor.prepare_sandbox_entry mgr.monitor;
          sb.phase <- Data_loaded;
          emit mgr Obs.Trace.Sandbox_seal ~arg:sb.id;
          audit mgr Obs.Audit.Info (fun () ->
              Printf.sprintf "seal id=%d input=%d bytes" sb.id sb.input_len);
          Ok start
        end

let take_output mgr sb =
  (* Quantized release hides processing-time variation (§11). *)
  (match mgr.mitigations with Some m -> Mitigations.release_output m | None -> ());
  let out = Buffer.to_bytes sb.output in
  Buffer.clear sb.output;
  out

let apply_exit_mitigations mgr =
  match mgr.mitigations with Some m -> Mitigations.on_sandbox_exit m | None -> ()

let set_mitigations mgr policy =
  mgr.mitigations <-
    Some (Mitigations.create ~clock:mgr.kern.Kernel.clock ~cpu:mgr.kern.Kernel.cpu policy)

let mitigation_stats mgr =
  Option.map
    (fun m -> (Mitigations.stalls m, Mitigations.stall_cycles m, Mitigations.flushes m))
    mgr.mitigations

let handle_syscall mgr sb call =
  apply_exit_mitigations mgr;
  interpose_charge mgr Hw.Cycles.Cost.monitor_exit_inspect;
  match sb.phase with
  | Initializing -> Kernel.syscall mgr.kern sb.main_task call
  | Terminated -> Kernel.Syscall.Rerr "sandbox terminated"
  | Data_loaded -> (
      match call with
      | Kernel.Syscall.Ioctl { fd; request; arg } when fd = sb.channel_fd -> (
          match request with
          | 1 ->
              (* Fetch the installed client input. *)
              emit mgr Obs.Trace.Channel_recv ~arg:sb.input_len;
              Kernel.Syscall.Rbytes
                (read_sandbox_bytes mgr sb ~addr:sb.input_addr ~len:sb.input_len)
          | 2 ->
              let cap = sb.policy.Policy.max_output_bytes in
              if cap > 0 && Buffer.length sb.output + Bytes.length arg > cap then begin
                kill mgr sb
                  (Printf.sprintf "output exceeds tenant cap (%d bytes)" cap);
                Kernel.Syscall.Rerr "killed"
              end
              else begin
                emit mgr Obs.Trace.Channel_send ~arg:(Bytes.length arg);
                Buffer.add_bytes sb.output arg;
                Kernel.Syscall.Rok
              end
          | _ ->
              kill mgr sb "ioctl: unknown channel request";
              Kernel.Syscall.Rerr "killed")
      | other ->
          kill mgr sb
            (Printf.sprintf "syscall %s after data load" (Kernel.Syscall.name other));
          Kernel.Syscall.Rerr "killed")

let handle_interrupt mgr sb f =
  apply_exit_mitigations mgr;
  sb.timer_count <- sb.timer_count + 1;
  interpose_charge mgr Hw.Cycles.Cost.monitor_state_mask;
  let cpu = mgr.kern.Kernel.cpu in
  Hw.Cpu.masked cpu mgr.irq_save f ()

let handle_ve mgr sb ~reason =
  apply_exit_mitigations mgr;
  sb.ve_count <- sb.ve_count + 1;
  match sb.phase with
  | Data_loaded ->
      kill mgr sb (Printf.sprintf "#VE exit (reason %d) after data load" reason);
      Kernel.Syscall.Rerr "killed"
  | Initializing | Terminated -> Kernel.Syscall.Rok

let cpuid mgr sb ~leaf =
  sb.ve_count <- sb.ve_count + 1;
  Monitor.cpuid mgr.monitor ~leaf

let page_fault mgr sb ~addr ~kind =
  sb.pf_count <- sb.pf_count + 1;
  Kernel.handle_page_fault mgr.kern sb.main_task ~addr ~kind

let timer_tick mgr sb = handle_interrupt mgr sb mgr.kernel_timer

let terminate mgr sb =
  if sb.phase <> Terminated then sb.phase <- Terminated;
  emit mgr Obs.Trace.Sandbox_exit ~arg:sb.id;
  audit mgr Obs.Audit.Info (fun () -> Printf.sprintf "exit id=%d" sb.id);
  (* Scrub and release confined memory (§6.3 cleanup). *)
  List.iter
    (fun r ->
      let pages = r.len / page_size in
      for i = 0 to pages - 1 do
        Hw.Phys_mem.zero_page mgr.kern.Kernel.mem (r.base_pfn + i)
      done;
      (match Kernel.munmap mgr.kern sb.main_task ~addr:r.start with
      | Ok () -> ()
      | Error _ -> ());
      for i = 0 to pages - 1 do
        Mmu_guard.declassify (guard mgr) ~pfn:(r.base_pfn + i);
        if Kernel.Alloc.is_allocated mgr.kern.Kernel.cma (r.base_pfn + i) then
          Kernel.Alloc.free mgr.kern.Kernel.cma (r.base_pfn + i)
      done)
    sb.confined;
  sb.confined <- [];
  Buffer.clear sb.output;
  Kernel.exit_task mgr.kern sb.main_task ~code:0;
  List.iter (fun th -> Kernel.exit_task mgr.kern th ~code:0) sb.threads

let sandboxes mgr =
  List.sort
    (fun a b -> compare a.id b.id)
    (Int_table.fold (fun _ sb acc -> sb :: acc) mgr.sandboxes [])

let exit_stats_all mgr =
  List.map
    (fun sb -> (sb.id, sb.sb_name, (sb.pf_count, sb.timer_count, sb.ve_count)))
    (sandboxes mgr)

let sandbox_count mgr = Int_table.length mgr.sandboxes
let manager_kernel mgr = mgr.kern
let manager_monitor mgr = mgr.monitor
