(** Re-exported submodules: the library's entry module shadows them. *)

module Layout = Layout
module Privops = Privops
module Alloc = Alloc
module Vma = Vma
module Task = Task
module Sched = Sched
module Fs = Fs
module Syscall = Syscall

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
  frame_alloc : Alloc.t;
  alloc_ptp : unit -> int;
  cma : Alloc.t;
  fs : Fs.t;
  sched : Sched.t;
  kernel_root : int;
  tasks : (int, Task.t) Hashtbl.t;
  mutable next_tid : int;
  stats : stats;
  mutable frame_source : (Task.t -> Vma.region -> addr:int -> int) option;
  futex_waiters : Task.t Queue.t;
  mutable mmu_batching : bool;
  mutable io_scratch : bytes;
      (* reusable landing buffer for special-file writes, grown on demand *)
}

let cost t c = Hw.Cycles.advance t.clock c

(* All kernel-side trace events go out on the CPU's emitter; emission never
   advances the virtual clock. *)
let emit t kind ~arg = Hw.Cpu.emit t.cpu kind ~arg

(* Attribution span around one handler body: the boundary events carry the
   current clock value, so the Attrib sink charges the enclosed cycles to
   [phase] (privops called inside nest their own monitor-side spans).
   [span1] passes the body's operand through rather than capturing it, so
   a toplevel body runs inside it without a closure. *)
let span1 t phase f a =
  emit t (Obs.Trace.span_begin phase) ~arg:0;
  match f a with
  | v ->
      emit t (Obs.Trace.span_end phase) ~arg:0;
      v
  | exception e ->
      emit t (Obs.Trace.span_end phase) ~arg:0;
      raise e

let span t phase f = span1 t phase f ()

(* Demand-populate the kernel direct map for one frame. Intermediate levels
   below the shared boot-time PDPT are shared by every address space. The
   probe and the leaf's flags build nothing. *)
let direct_map_flags = { Hw.Pte.default_flags with nx = true }

let ensure_direct_map t ~pfn =
  let vaddr = Layout.direct_map (Hw.Phys_mem.addr_of_pfn pfn) in
  if Hw.Page_table.walk_packed t.mem ~root_pfn:t.kernel_root vaddr < 0 then
    Hw.Page_table.map t.mem ~write_pte:t.privops.Privops.write_pte ~alloc_ptp:t.alloc_ptp
      ~root_pfn:t.kernel_root ~vaddr (Hw.Pte.make ~pfn direct_map_flags)

(* Eagerly allocate the PML4-slot subtrees shared between all address
   spaces, so later direct-map fills are visible through every root. *)
let preplant_shared_slot t root vaddr =
  let slot_index, _, _, _ = Hw.Page_table.split vaddr in
  let slot_addr = Hw.Phys_mem.addr_of_pfn root + (8 * slot_index) in
  let existing = Hw.Phys_mem.read_u64 t.mem slot_addr in
  if not (Hw.Pte.present existing) then begin
    let pdpt = t.alloc_ptp () in
    t.privops.Privops.write_pte ~pte_addr:slot_addr
      (Hw.Pte.make ~pfn:pdpt { Hw.Pte.default_flags with user = true })
  end

let boot ~mem ~cpu ~td ~privops ~reserved_frames ~cma_frames =
  let frames = Hw.Phys_mem.frames mem in
  if reserved_frames + cma_frames >= frames then
    invalid_arg "Kernel.boot: reservations exceed physical memory";
  let general = frames - reserved_frames - cma_frames in
  let frame_alloc = Alloc.create ~first_pfn:reserved_frames ~frames:general in
  let alloc_ptp () =
    let pfn = Alloc.alloc_pfn frame_alloc in
    if pfn < 0 then failwith "Kernel: out of frames for page tables";
    Hw.Phys_mem.zero_page mem pfn;
    pfn
  in
  let t =
    {
      mem;
      clock = cpu.Hw.Cpu.clock;
      cpu;
      td;
      privops;
      frame_alloc;
      alloc_ptp;
      cma = Alloc.create ~first_pfn:(reserved_frames + general) ~frames:cma_frames;
      fs = Fs.create ();
      sched =
        Sched.create
          ~on_switch:(fun next ->
            Hw.Cpu.emit cpu Obs.Trace.Context_switch ~arg:next.Task.tid)
          ~quantum_ticks:4 ();
      kernel_root = 0 (* patched below *);
      tasks = Hashtbl.create 16;
      next_tid = 1;
      stats = { page_faults = 0; syscalls = 0; timer_irqs = 0; ve_exits = 0; segfaults = 0 };
      frame_source = None;
      futex_waiters = Queue.create ();
      mmu_batching = false;
      io_scratch = Bytes.create 4096;
    }
  in
  let root =
    match Alloc.alloc_zeroed t.frame_alloc mem with
    | Some pfn -> pfn
    | None -> failwith "Kernel.boot: no frame for root"
  in
  let t = { t with kernel_root = root } in
  privops.Privops.declare_root ~root_pfn:root;
  preplant_shared_slot t root Layout.direct_map_base;
  preplant_shared_slot t root Layout.kernel_text_base;
  privops.Privops.write_cr3 ~root_pfn:root;
  (* Stock hardening a modern guest enables; Erebor additionally forces
     these on and removes the kernel's ability to flip them back. *)
  privops.Privops.set_cr_bit ~reg:`Cr0 Hw.Cr.cr0_wp true;
  privops.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smep true;
  privops.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap true;
  t

let copy_kernel_half t root =
  List.iter
    (fun base ->
      let slot_index, _, _, _ = Hw.Page_table.split base in
      let src = Hw.Phys_mem.read_u64 t.mem (Hw.Phys_mem.addr_of_pfn t.kernel_root + (8 * slot_index)) in
      if Hw.Pte.present src then
        t.privops.Privops.write_pte
          ~pte_addr:(Hw.Phys_mem.addr_of_pfn root + (8 * slot_index))
          src)
    [ Layout.direct_map_base; Layout.kernel_text_base ]

let create_task t ~name ~kind =
  let root =
    match Alloc.alloc_zeroed t.frame_alloc t.mem with
    | Some pfn -> pfn
    | None -> failwith "Kernel.create_task: no frame for root"
  in
  t.privops.Privops.declare_root ~root_pfn:root;
  copy_kernel_half t root;
  let task = Task.make ~tid:t.next_tid ~name ~kind ~root_pfn:root ~vmas:(Vma.create ()) in
  t.next_tid <- t.next_tid + 1;
  Hashtbl.replace t.tasks task.Task.tid task;
  Sched.enqueue t.sched task;
  task

(* The thread shares its process's page tables and its VMA set itself: a
   mapping either side makes is the other's too, so the two never pick the
   same gap, and a munmap by either removes the region for both. *)
let clone_thread t parent ~name =
  let task =
    Task.make ~tid:t.next_tid ~name ~kind:parent.Task.kind ~root_pfn:parent.Task.root_pfn
      ~vmas:parent.Task.vmas
  in
  task.Task.brk <- parent.Task.brk;
  t.next_tid <- t.next_tid + 1;
  Hashtbl.replace t.tasks task.Task.tid task;
  Sched.enqueue t.sched task;
  task

(* [exit_task] drops a task from [tasks], so every entry is live. *)
let live_task_count t = Hashtbl.length t.tasks

(* The gap search and the insertion build nothing: a mapping costs only its
   region record. A start [find_gap] returns is page-aligned and free, so
   the insertion cannot fail. *)
let mmap _t task ~len ~prot ~kind =
  let len = Layout.page_align_up len in
  if len <= 0 then -1
  else
    let start = Vma.find_gap task.Task.vmas ~hint:0x1000_0000 ~len ~limit:Layout.user_top in
    if start >= 0 then ignore (Vma.add task.Task.vmas { Vma.start; len; prot; kind });
    start

let allocator_for t kind =
  match kind with Vma.Confined -> t.cma | Vma.Anon | Vma.Stack | Vma.File _ | Vma.Common -> t.frame_alloc

(* Frame for a faulting page: the Erebor frame source first, then the
   region's allocator; -1 when both come up empty. *)
let fault_frame t task region ~page =
  let provided =
    match t.frame_source with Some f -> f task region ~addr:page | None -> -1
  in
  if provided >= 0 then provided else Alloc.alloc_pfn (allocator_for t region.Vma.kind)

(* Leaf flags of a demand fault, indexed by user*4 + writable*2 + nx, so
   building a fault's PTE allocates no flags record. *)
let fault_flags =
  Array.init 8 (fun i ->
      { Hw.Pte.default_flags with
        user = i land 4 <> 0; writable = i land 2 <> 0; nx = i land 1 <> 0 })

let fault_pte region ~page ~pfn =
  (* Common regions may be writable in the VMA until the monitor seals
     them; the PTE mirrors the VMA protection. *)
  let bit b v = if b then v else 0 in
  Hw.Pte.make ~pfn
    fault_flags.(bit (Layout.is_user_addr page) 4
                 lor bit region.Vma.prot.Vma.write 2
                 lor bit (not region.Vma.prot.Vma.exec) 1)

(* Sandbox-declared memory is deliberately absent from the kernel direct
   map: the monitor's single-mapping rule forbids a second (kernel-visible)
   mapping of confined frames. *)
let direct_map_fault_frame t region ~pfn =
  match region.Vma.kind with
  | Vma.Confined | Vma.Common -> ()
  | Vma.Anon | Vma.Stack | Vma.File _ -> ensure_direct_map t ~pfn

let fault_in t task ~addr ~kind =
  cost t Hw.Cycles.Cost.page_fault_base;
  t.stats.page_faults <- t.stats.page_faults + 1;
  emit t Obs.Trace.Page_fault ~arg:addr;
  match Vma.find_exn task.Task.vmas addr with
  | exception Not_found ->
      t.stats.segfaults <- t.stats.segfaults + 1;
      emit t Obs.Trace.Segfault ~arg:addr;
      Error (Printf.sprintf "segfault: no mapping at 0x%x" addr)
  | region ->
      let allowed =
        match kind with
        | Hw.Fault.Read -> region.Vma.prot.Vma.read
        | Hw.Fault.Write -> region.Vma.prot.Vma.write
        | Hw.Fault.Execute -> region.Vma.prot.Vma.exec
      in
      if not allowed then begin
        t.stats.segfaults <- t.stats.segfaults + 1;
        emit t Obs.Trace.Segfault ~arg:addr;
        Error (Printf.sprintf "segfault: protection at 0x%x" addr)
      end
      else begin
        let page = Layout.page_align_down addr in
        let pfn = fault_frame t task region ~page in
        if pfn < 0 then Error "out of memory"
        else begin
          direct_map_fault_frame t region ~pfn;
          Hw.Page_table.map t.mem ~write_pte:t.privops.Privops.write_pte
            ~alloc_ptp:t.alloc_ptp ~root_pfn:task.Task.root_pfn ~vaddr:page
            (fault_pte region ~page ~pfn);
          Ok ()
        end
      end

(* [span t Pf_handler] written out: a fault allocates no closure. *)
let handle_page_fault t task ~addr ~kind =
  emit t (Obs.Trace.span_begin Obs.Trace.Pf_handler) ~arg:0;
  match fault_in t task ~addr ~kind with
  | r ->
      emit t (Obs.Trace.span_end Obs.Trace.Pf_handler) ~arg:0;
      r
  | exception e ->
      emit t (Obs.Trace.span_end Obs.Trace.Pf_handler) ~arg:0;
      raise e

(* Batched population: the demand-zero faults still occur page by page,
   but the leaf PTE stores are submitted to the monitor in batches of 64,
   sharing EMC round trips (§9.1's batched-MMU optimization). *)
let populate_batched t task ~first ~last =
  let batch = ref [] and count = ref 0 in
  let flush () =
    if !count > 0 then begin
      t.privops.Privops.write_pte_batch (Array.of_list (List.rev !batch));
      batch := [];
      count := 0
    end
  in
  let rec go page =
    if page >= last then begin
      flush ();
      Ok ()
    end
    else if Hw.Page_table.walk_packed t.mem ~root_pfn:task.Task.root_pfn page >= 0 then
      go (page + Hw.Phys_mem.page_size)
    else begin
      cost t Hw.Cycles.Cost.page_fault_base;
      t.stats.page_faults <- t.stats.page_faults + 1;
      emit t Obs.Trace.Page_fault ~arg:page;
      match Vma.find_exn task.Task.vmas page with
      | exception Not_found -> Error (Printf.sprintf "segfault: no mapping at 0x%x" page)
      | region ->
          let pfn = fault_frame t task region ~page in
          if pfn < 0 then Error "out of memory"
          else begin
            direct_map_fault_frame t region ~pfn;
            let slot =
              Hw.Page_table.prepare_leaf t.mem ~write_pte:t.privops.Privops.write_pte
                ~alloc_ptp:t.alloc_ptp ~root_pfn:task.Task.root_pfn ~vaddr:page
            in
            batch := (slot, fault_pte region ~page ~pfn) :: !batch;
            incr count;
            if !count >= 64 then flush ();
            go (page + Hw.Phys_mem.page_size)
          end
    end
  in
  go first

let populate t task ~start ~len =
  let first = Layout.page_align_down start in
  let last = Layout.page_align_up (start + len) in
  if t.mmu_batching then
    span t Obs.Trace.Pf_handler (fun () -> populate_batched t task ~first ~last)
  else begin
    let rec go page =
      if page >= last then Ok ()
      else if Hw.Page_table.walk_packed t.mem ~root_pfn:task.Task.root_pfn page >= 0 then
        go (page + Hw.Phys_mem.page_size)
      else
        match handle_page_fault t task ~addr:page ~kind:Hw.Fault.Write with
        | Ok () -> go (page + Hw.Phys_mem.page_size)
        | Error e -> Error e
    in
    go first
  end

let set_mmu_batching t enabled = t.mmu_batching <- enabled

(* Dynamic kernel code (§7): loadable modules and text_poke go through the
   monitor's verifier before becoming executable. *)
let module_area_base = Layout.kernel_text_base + 0x1000_0000

let load_module t ~name ~code =
  match t.privops.Privops.verify_dynamic_code ~section:("module:" ^ name) code with
  | Error e -> Error ("module rejected: " ^ e)
  | Ok () ->
      let pages = max 1 (Layout.pages_of_bytes (Bytes.length code)) in
      let rec alloc_frames n acc =
        if n = 0 then Some (List.rev acc)
        else
          match Alloc.alloc t.frame_alloc with
          | Some pfn -> alloc_frames (n - 1) (pfn :: acc)
          | None -> None
      in
      (match alloc_frames pages [] with
      | None -> Error "module: out of memory"
      | Some frames ->
          let base =
            module_area_base + (t.next_tid * 0x100_0000) + (Hashtbl.hash name land 0xff_f000)
          in
          List.iteri
            (fun i pfn ->
              let off = i * Hw.Phys_mem.page_size in
              let chunk = min Hw.Phys_mem.page_size (Bytes.length code - off) in
              if chunk > 0 then
                Hw.Phys_mem.blit_from t.mem (Hw.Phys_mem.addr_of_pfn pfn) code ~off
                  ~len:chunk;
              (* Map read-only + executable: W^X for dynamic code too. *)
              Hw.Page_table.map t.mem ~write_pte:t.privops.Privops.write_pte
                ~alloc_ptp:t.alloc_ptp ~root_pfn:t.kernel_root ~vaddr:(base + off)
                (Hw.Pte.make ~pfn { Hw.Pte.default_flags with writable = false }))
            frames;
          Ok base)

let poke_text t ~vaddr ~code =
  (* text_poke: the kernel cannot write its own (write-protected) text, so
     the monitor validates and performs the update (§7). *)
  match t.privops.Privops.verify_dynamic_code ~section:"text_poke" code with
  | Error e -> Error ("poke rejected: " ^ e)
  | Ok () -> (
      match Hw.Page_table.walk t.mem ~root_pfn:t.kernel_root vaddr with
      | None -> Error "poke: target not mapped"
      | Some w ->
          Hw.Phys_mem.write_bytes t.mem
            (Hw.Phys_mem.addr_of_pfn w.Hw.Page_table.pfn + Hw.Phys_mem.page_offset vaddr)
            code;
          Ok ())

let resolve_pfn t task ~addr =
  match Hw.Page_table.walk t.mem ~root_pfn:task.Task.root_pfn addr with
  | Some w -> Some w.Hw.Page_table.pfn
  | None -> None

(* The leaf entry mapping [page], or [Hw.Pte.empty] when [page] is
   unmapped: a probe through [Hw.Page_table.walk_packed] that builds no
   walk record. *)
let present_leaf t ~root_pfn page =
  let w = Hw.Page_table.walk_packed t.mem ~root_pfn page in
  if w < 0 then Hw.Pte.empty else Hw.Phys_mem.read_u64 t.mem (Hw.Page_table.packed_pte_addr w)

(* Eager copy of one region's present pages (no COW in this kernel); a
   page costs a frame, a copy and a leaf store, and builds nothing. *)
let fork_region t ~parent ~child region =
  let allocator = allocator_for t region.Vma.kind in
  let page = ref region.Vma.start in
  while !page < Vma.region_end region do
    let pte = present_leaf t ~root_pfn:parent.Task.root_pfn !page in
    if Hw.Pte.present pte then begin
      let pfn = Alloc.alloc_pfn allocator in
      if pfn < 0 then failwith "fork: out of memory";
      ensure_direct_map t ~pfn;
      Hw.Phys_mem.copy t.mem ~src:(Hw.Phys_mem.addr_of_pfn (Hw.Pte.pfn pte))
        ~dst:(Hw.Phys_mem.addr_of_pfn pfn) ~len:Hw.Phys_mem.page_size;
      cost t Hw.Cycles.Cost.page_fault_base;
      t.stats.page_faults <- t.stats.page_faults + 1;
      emit t Obs.Trace.Page_fault ~arg:!page;
      Hw.Page_table.map t.mem ~write_pte:t.privops.Privops.write_pte
        ~alloc_ptp:t.alloc_ptp ~root_pfn:child.Task.root_pfn ~vaddr:!page
        (Hw.Pte.with_pfn pte pfn)
    end;
    page := !page + Hw.Phys_mem.page_size
  done

let fork_process t parent ~name =
  let child = create_task t ~name ~kind:parent.Task.kind in
  child.Task.brk <- parent.Task.brk;
  Vma.iter
    (fun region ->
      (match Vma.add child.Task.vmas region with
      | Ok () -> ()
      | Error e -> failwith ("fork: " ^ e));
      fork_region t ~parent ~child region)
    parent.Task.vmas;
  child

(* Unmap and free one region's present pages. Common frames back a shared
   instance other address spaces may still map: only the mapping goes
   away, never the frame. *)
let unmap_region t task region =
  let page = ref region.Vma.start in
  while !page < Vma.region_end region do
    let pte = present_leaf t ~root_pfn:task.Task.root_pfn !page in
    if Hw.Pte.present pte then begin
      Hw.Page_table.unmap t.mem ~write_pte:t.privops.Privops.write_pte
        ~root_pfn:task.Task.root_pfn ~vaddr:!page;
      match region.Vma.kind with
      | Vma.Common -> ()
      | Vma.Anon | Vma.Stack | Vma.File _ | Vma.Confined ->
          let allocator = allocator_for t region.Vma.kind and pfn = Hw.Pte.pfn pte in
          (try if Alloc.is_allocated allocator pfn then Alloc.free allocator pfn
           with Invalid_argument _ -> ( (* frame owned elsewhere *) ))
    end;
    page := !page + Hw.Phys_mem.page_size
  done

let munmap t task ~addr =
  match Vma.find_exn task.Task.vmas addr with
  | exception Not_found -> Error "munmap: no region"
  | region when region.Vma.start <> addr -> Error "munmap: not region start"
  | region ->
      unmap_region t task region;
      Vma.remove task.Task.vmas ~start:addr;
      Ok ()

(* The timer tick and the context switch run on every scheduler quantum, so
   neither span takes a closure (the tick's body goes through [span1], the
   switch's three operands get both exit arms written out), the scheduler
   gets [context_switch] itself plus the kernel as its argument, and an
   off-CPU task's register save area is reused once it exists: a tick
   builds nothing. *)
let sched_begin = Obs.Trace.span_begin Obs.Trace.Scheduler
let sched_end = Obs.Trace.span_end Obs.Trace.Scheduler

let switch_body t ~prev ~next =
  cost t Hw.Cycles.Cost.context_switch;
  (match prev with
  | Some p -> (
      match p.Task.saved_regs with
      | Some saved -> Hw.Cpu.save_regs t.cpu saved
      | None -> p.Task.saved_regs <- Some (Hw.Cpu.snapshot_regs t.cpu))
  | None -> ());
  (match next.Task.saved_regs with
  | Some regs -> Hw.Cpu.restore_regs t.cpu regs
  | None -> Hw.Cpu.scrub_regs t.cpu);
  t.privops.Privops.write_cr3 ~root_pfn:next.Task.root_pfn

let context_switch t ~prev ~next =
  emit t sched_begin ~arg:0;
  match switch_body t ~prev ~next with
  | () -> emit t sched_end ~arg:0
  | exception e ->
      emit t sched_end ~arg:0;
      raise e

let timer_body t =
  cost t Hw.Cycles.Cost.interrupt_delivery;
  t.stats.timer_irqs <- t.stats.timer_irqs + 1;
  emit t Obs.Trace.Timer_irq ~arg:0;
  ignore (Sched.on_timer t.sched ~switch:context_switch t)

let timer_interrupt t = span1 t Obs.Trace.Timer_handler timer_body t

let note_ve_exit t =
  t.stats.ve_exits <- t.stats.ve_exits + 1;
  emit t Obs.Trace.Ve_exit ~arg:0

(* The vmcall of each basic cpuid leaf is built once; a leaf outside the
   table builds its own. *)
let cpuid_requests = Array.init 32 (fun leaf -> Tdx.Ghci.Vmcall (Tdx.Ghci.Cpuid leaf))

let cpuid_request leaf =
  if leaf >= 0 && leaf < Array.length cpuid_requests then cpuid_requests.(leaf)
  else Tdx.Ghci.Vmcall (Tdx.Ghci.Cpuid leaf)

let cpuid_body t leaf =
  cost t Hw.Cycles.Cost.ve_handling;
  t.stats.ve_exits <- t.stats.ve_exits + 1;
  emit t Obs.Trace.Ve_exit ~arg:leaf;
  match t.privops.Privops.tdcall (cpuid_request leaf) with
  | Tdx.Td_module.Ok_int v -> v
  | Tdx.Td_module.Ok_bytes _ | Tdx.Td_module.Ok_report _ | Tdx.Td_module.Ok_unit -> 0L
  | Tdx.Td_module.Error_leaf e -> failwith ("cpuid: " ^ e)

(* [span t Ve_handler] written out: a cpuid builds no closure. *)
let cpuid t _task ~leaf =
  emit t (Obs.Trace.span_begin Obs.Trace.Ve_handler) ~arg:0;
  match cpuid_body t leaf with
  | v ->
      emit t (Obs.Trace.span_end Obs.Trace.Ve_handler) ~arg:0;
      v
  | exception e ->
      emit t (Obs.Trace.span_end Obs.Trace.Ve_handler) ~arg:0;
      raise e

let exit_task t task ~code =
  Task.kill task ~exit_code:code;
  Hashtbl.remove t.tasks task.Task.tid;
  Sched.remove_dead t.sched

let brk _t task ~new_brk =
  let old = task.Task.brk in
  if new_brk <= old then Ok old
  else begin
    let start = Layout.page_align_up old in
    let len = Layout.page_align_up new_brk - start in
    if len = 0 then begin
      task.Task.brk <- new_brk;
      Ok new_brk
    end
    else
      match Vma.add task.Task.vmas { Vma.start; len; prot = Vma.prot_rw; kind = Vma.Anon } with
      | Ok () ->
          task.Task.brk <- new_brk;
          Ok new_brk
      | Error e -> Error e
  end

(* read(2)/write(2) on a user buffer: the byte count, or a negative errno.
   The fd lookup and the node lookup raise instead of building options, a
   read copies straight from the node's view and a special's write lands
   in the reusable scratch, so a call builds nothing. *)
let ebadf = -9
let enoent = -2

let read_user t task ~fd ~user_buf ~len =
  match Task.path_of_fd task fd with
  | exception Not_found -> ebadf
  | path -> (
      match Fs.view t.fs path with
      | exception Not_found -> enoent
      | data ->
          let n = min len (Bytes.length data) in
          t.privops.Privops.copy_to_user_from ~user_addr:user_buf ~buf:data ~off:0 ~len:n;
          n)

let write_user t task ~fd ~user_buf ~len =
  match Task.path_of_fd task fd with
  | exception Not_found -> ebadf
  | path ->
      if Fs.is_special t.fs path then begin
        (* Specials get a (buffer, len) view of a reusable scratch: same
           user-copy costs and checks, no per-call buffer. *)
        if Bytes.length t.io_scratch < len then t.io_scratch <- Bytes.create len;
        t.privops.Privops.copy_from_user_into ~user_addr:user_buf ~buf:t.io_scratch ~off:0
          ~len;
        ignore (Fs.write_special_view t.fs path t.io_scratch ~len);
        len
      end
      else begin
        let data = t.privops.Privops.copy_from_user ~user_addr:user_buf ~len in
        Fs.append_file t.fs path data;
        Bytes.length data
      end

let rw_error ~write n =
  (if write then "write" else "read") ^ if n = ebadf then ": bad fd" else ": no such file"

let rw_result ~write n = if n >= 0 then Syscall.Rint n else Syscall.Rerr (rw_error ~write n)

(* Every syscall's entry: the round trip, the count and the event. *)
let enter t code =
  cost t Hw.Cycles.Cost.syscall_roundtrip;
  t.stats.syscalls <- t.stats.syscalls + 1;
  emit t Obs.Trace.Syscall ~arg:code

(* The dispatch body, bracketed by [syscall] below. Split out so the hot
   entry point can emit the span boundaries inline instead of building a
   closure per call. *)
let syscall_body t task call =
  enter t (Syscall.code call);
  match call with
  | Syscall.Open { path } ->
      if not (Fs.exists t.fs path) then Fs.write_file t.fs path Bytes.empty;
      Syscall.Rint (Task.alloc_fd task path)
  | Syscall.Close { fd } ->
      if Task.close_fd task fd then Syscall.Rint 0 else Syscall.Rerr "close: bad fd"
  | Syscall.Read { fd; user_buf = 0; len } -> (
      (* Kernel-buffered: the payload itself comes back, read-only. *)
      match Task.path_of_fd task fd with
      | exception Not_found -> Syscall.Rerr "read: bad fd"
      | path -> (
          match Fs.view t.fs path with
          | exception Not_found -> Syscall.Rerr "read: no such file"
          | data ->
              let n = min len (Bytes.length data) in
              Syscall.Rbytes (if n = Bytes.length data then data else Bytes.sub data 0 n)))
  | Syscall.Read { fd; user_buf; len } ->
      rw_result ~write:false (read_user t task ~fd ~user_buf ~len)
  | Syscall.Write { fd; user_buf; len } ->
      rw_result ~write:true (write_user t task ~fd ~user_buf ~len)
  | Syscall.Mmap { len; prot } ->
      let addr = mmap t task ~len ~prot ~kind:Vma.Anon in
      if addr >= 0 then Syscall.Raddr addr
      else Syscall.Rerr (if len <= 0 then "mmap: empty length" else "mmap: address space exhausted")
  | Syscall.Munmap { addr } -> (
      match munmap t task ~addr with Ok () -> Syscall.Rok | Error e -> Syscall.Rerr e)
  | Syscall.Brk { new_brk } -> (
      match brk t task ~new_brk with Ok b -> Syscall.Raddr b | Error e -> Syscall.Rerr e)
  | Syscall.Clone { name } ->
      let child = clone_thread t task ~name in
      Syscall.Rint child.Task.tid
  | Syscall.Futex_wait ->
      Sched.block_current t.sched;
      Queue.add task t.futex_waiters;
      ignore (Sched.yield t.sched ~switch:context_switch t);
      Syscall.Rok
  | Syscall.Futex_wake ->
      (match Queue.take_opt t.futex_waiters with
      | Some waiter -> Sched.wake t.sched waiter
      | None -> ());
      Syscall.Rok
  | Syscall.Ioctl { fd; request; arg } -> (
      match Task.path_of_fd task fd with
      | exception Not_found -> Syscall.Rerr "ioctl: bad fd"
      | path -> (
          match request with
          | 1 -> (
              (* INPUT: read the node. *)
              match Fs.view t.fs path with
              | data -> Syscall.Rbytes data
              | exception Not_found -> Syscall.Rerr "ioctl: no such node")
          | 2 ->
              (* OUTPUT: write through the node. *)
              ignore (Fs.write_path t.fs path arg);
              Syscall.Rok
          | _ -> Syscall.Rerr "ioctl: unknown request"))
  | Syscall.Getpid -> task.Task.pid_result
  | Syscall.Sched_yield ->
      ignore (Sched.yield t.sched ~switch:context_switch t);
      Syscall.Rok
  | Syscall.Exit { code } ->
      exit_task t task ~code;
      Syscall.Rok

(* Span boundaries written out inline (the constructors are interned in
   [Obs.Trace]), so steady-state dispatch allocates nothing of its own. *)
let syscall t task call =
  emit t (Obs.Trace.span_begin Obs.Trace.Syscall_dispatch) ~arg:0;
  match syscall_body t task call with
  | r ->
      emit t (Obs.Trace.span_end Obs.Trace.Syscall_dispatch) ~arg:0;
      r
  | exception e ->
      emit t (Obs.Trace.span_end Obs.Trace.Syscall_dispatch) ~arg:0;
      raise e

(* [syscall] for a read or write on a user buffer, with the same entry,
   events and span, minus the request and result values. *)
let rw_body t task ~write ~fd ~user_buf ~len =
  enter t (if write then 1 else 0) (* [Syscall.code] of Write and Read *);
  let n =
    if write then write_user t task ~fd ~user_buf ~len
    else read_user t task ~fd ~user_buf ~len
  in
  if n < 0 then failwith (rw_error ~write n);
  n

let rw t task ~write ~fd ~user_buf ~len =
  emit t (Obs.Trace.span_begin Obs.Trace.Syscall_dispatch) ~arg:0;
  match rw_body t task ~write ~fd ~user_buf ~len with
  | n ->
      emit t (Obs.Trace.span_end Obs.Trace.Syscall_dispatch) ~arg:0;
      n
  | exception e ->
      emit t (Obs.Trace.span_end Obs.Trace.Syscall_dispatch) ~arg:0;
      raise e

(* Exposed for Erebor: install a custom provider of fault frames (common
   memory instances, pinned confined pools). *)
let set_frame_source t f = t.frame_source <- Some f
