(* Multi-tenant sandbox density (see density.mli).

   Two experiments over the pluggable isolation backends:

   - [backend_overhead]: the Fig. 9 programs under full Erebor with each
     backend, against one native baseline per program — the per-backend
     cost on the calibrated workloads (PKS is the paper's configuration;
     TME-MK trades the PKRS flip for fill-time key checks).

   - [scaling]: one machine per (backend, N): N sealed sandboxes over one
     shared common instance, round-robin request traffic through the real
     monitored paths, and an adversarial probe at the end. Everything is
     measured from mechanism — frames from the guard's registry, EMCs from
     the machine counters, latency from the virtual clock. *)

let page_size = Hw.Phys_mem.page_size

(* ------------------------------------------------------------------ *)
(* Per-backend Fig. 9 overhead                                         *)
(* ------------------------------------------------------------------ *)

type backend_row = {
  bprogram : string;
  bbackend : Erebor.Isolation.kind;
  native_cycles : int;
  backend_cycles : int;
  boverhead_pct : float;
}

let default_backends = [ Erebor.Isolation.Pks; Erebor.Isolation.Tme_mk ]

let backend_overhead ?jobs ?(backends = default_backends) () =
  (* One native baseline plus one full-Erebor run per backend, every
     machine independent — flatten and fan out like Eval.fig9. *)
  let tasks =
    List.concat_map
      (fun (program, spec_fn) ->
        (program, spec_fn, None)
        :: List.map (fun b -> (program, spec_fn, Some b)) backends)
      Eval.all_programs
  in
  let results =
    Sim.Runner.map_list ?jobs
      (fun (_, spec_fn, backend) ->
        match backend with
        | None -> Sim.Machine.run_fresh ~setting:Sim.Config.Native (spec_fn ())
        | Some b ->
            Sim.Machine.run_fresh ~backend:b ~setting:Sim.Config.Erebor_full
              (spec_fn ()))
      tasks
  in
  let runs = List.combine tasks results in
  let native_of program =
    match List.find_opt (fun ((p, _, b), _) -> p = program && b = None) runs with
    | Some (_, (r : Sim.Machine.run_result)) -> r.Sim.Machine.run_cycles
    | None -> assert false
  in
  List.filter_map
    (fun ((program, _, backend), (r : Sim.Machine.run_result)) ->
      match backend with
      | None -> None
      | Some b ->
          let native = native_of program in
          Some
            {
              bprogram = program;
              bbackend = b;
              native_cycles = native;
              backend_cycles = r.Sim.Machine.run_cycles;
              boverhead_pct =
                100.0
                *. ((float_of_int r.Sim.Machine.run_cycles /. float_of_int native)
                   -. 1.0);
            })
    runs

(* ------------------------------------------------------------------ *)
(* Scaling curve                                                       *)
(* ------------------------------------------------------------------ *)

type tenant_latency = {
  tenant_id : int;
  tenant_name : string;
  treqs : int;
  t_p50 : int;
  t_p99 : int;
}

type scale_row = {
  sbackend : Erebor.Isolation.kind;
  tenants : int;
  confined_frames : int;
  ptp_frames : int;
  common_frames : int;
  frames_per_tenant : float;
  emc_per_request : float;
  emc_interference_pct : float;
  worst_p99 : int;
  tenant_rows : tenant_latency list;
  violations : int;
}

let confined_pages_per_tenant = 16
let common_pages = 64
let common_instance = "density-corpus"

(* The adversarial probe: every attack goes through the monitored PTE path
   a compromised kernel would use; a denial raises [Policy_violation]. The
   return value counts attempts that were NOT denied. *)
let adversarial_probe m mgr backend_kind =
  let kern = Sim.Machine.kern m in
  let mem = kern.Kernel.mem in
  let monitor = Erebor.Sandbox.manager_monitor mgr in
  let denied f =
    match f () with
    | () -> false
    | exception Erebor.Monitor.Policy_violation _ -> true
  in
  (* A normal task standing in for any compromised-kernel context outside
     the victim sandboxes. *)
  let attacker = Kernel.create_task kern ~name:"density-adversary" ~kind:Kernel.Task.Normal in
  let a_addr =
    Result.get_ok
      (Kernel.mmap kern attacker ~len:page_size ~prot:Kernel.Vma.prot_rw
         ~kind:Kernel.Vma.Anon)
  in
  (match Kernel.handle_page_fault kern attacker ~addr:a_addr ~kind:Hw.Fault.Write with
  | Ok () -> ()
  | Error e -> failwith ("density probe: " ^ e));
  let leaf_addr =
    Option.get
      (Hw.Page_table.leaf_addr mem ~root_pfn:attacker.Kernel.Task.root_pfn a_addr)
  in
  let write_pte pte =
    kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf_addr pte
  in
  let violations = ref 0 in
  let attempt f = if not (denied f) then incr violations in
  let guard = Erebor.Monitor.guard monitor in
  let confined_pfn_of sb =
    (* First confined frame of [sb], straight from the guard's registry. *)
    let frames = Hw.Phys_mem.frames mem in
    let rec scan pfn =
      if pfn >= frames then None
      else
        match Erebor.Mmu_guard.class_of guard pfn with
        | Erebor.Mmu_guard.Confined { owner } when owner = Erebor.Sandbox.id sb ->
            Some pfn
        | _ -> scan (pfn + 1)
    in
    scan 0
  in
  let sandboxes = Erebor.Sandbox.sandboxes mgr in
  (* 1. Map another tenant's confined frame (double-mapping / cross-tenant
     read attempt). Run it against every tenant so a per-tenant hole can't
     hide behind tenant 1. *)
  List.iter
    (fun sb ->
      match confined_pfn_of sb with
      | None -> ()
      | Some victim ->
          attempt (fun () ->
              write_pte
                (Hw.Pte.make ~pfn:victim { Hw.Pte.default_flags with user = true })))
    sandboxes;
  (* 2. Key-id forgery (TME-MK only): a kernel-crafted leaf carrying a
     nonzero key id must be screened out before class checks. *)
  if backend_kind = Erebor.Isolation.Tme_mk then begin
    let own_pfn =
      Option.get (Kernel.resolve_pfn kern attacker ~addr:a_addr)
    in
    List.iter
      (fun sb ->
        let keyid =
          Erebor.Isolation.keyid_of_owner (Erebor.Sandbox.id sb)
        in
        attempt (fun () ->
            write_pte
              (Hw.Pte.set_keyid
                 (Hw.Pte.make ~pfn:own_pfn { Hw.Pte.default_flags with user = true })
                 keyid)))
      sandboxes
  end;
  (* 3. Writable mapping of a sealed common frame from outside any
     sandbox. *)
  let common_pfn =
    let frames = Hw.Phys_mem.frames mem in
    let rec scan pfn =
      if pfn >= frames then None
      else
        match Erebor.Mmu_guard.class_of guard pfn with
        | Erebor.Mmu_guard.Common c
          when Erebor.Mmu_guard.common_name c = common_instance ->
            Some pfn
        | _ -> scan (pfn + 1)
    in
    scan 0
  in
  (match common_pfn with
  | None -> ()
  | Some pfn ->
      attempt (fun () ->
          write_pte (Hw.Pte.make ~pfn { Hw.Pte.default_flags with user = true })));
  Kernel.exit_task kern attacker ~code:0;
  !violations

type tenant = { sb : Erebor.Sandbox.t; base : int; common_base : int }

(* Provision and seal tenant [i]: a sandbox with a pinned confined heap,
   the shared common instance attached, and its own client data loaded. *)
let provision mgr i =
  let name = Printf.sprintf "tenant-%d" (i + 1) in
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox mgr ~name
         ~confined_budget:(confined_pages_per_tenant * page_size))
  in
  let base =
    Result.get_ok
      (Erebor.Sandbox.declare_confined mgr sb
         ~len:(confined_pages_per_tenant * page_size))
  in
  let common_base =
    Result.get_ok
      (Erebor.Sandbox.attach_common mgr sb ~name:common_instance
         ~size:(common_pages * page_size))
  in
  let input = Bytes.make 256 (Char.chr (Char.code 'a' + (i mod 26))) in
  (match Erebor.Sandbox.load_client_data mgr sb input with
  | Ok _ -> ()
  | Error e -> failwith e);
  { sb; base; common_base }

(* One request through the monitored skeleton of §6: a CR3 switch into the
   tenant, confined + common touches (the TLB-fill path is where TME-MK
   charges its key loads), the channel ioctls, and a timer tick. *)
let serve m t ~round ~index =
  let mgr = Option.get (Sim.Machine.manager m) in
  let kern = Sim.Machine.kern m in
  let cpu = kern.Kernel.cpu in
  let user_touch addr =
    cpu.Hw.Cpu.mode <- Hw.Cpu.User;
    ignore (Hw.Cpu.read_u8 cpu addr);
    cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor
  in
  let task = Erebor.Sandbox.main_task t.sb in
  kern.Kernel.privops.Kernel.Privops.write_cr3
    ~root_pfn:task.Kernel.Task.root_pfn;
  for p = 0 to 3 do
    user_touch
      (t.base + (((round + p) mod confined_pages_per_tenant) * page_size))
  done;
  (* One demand-paged common page plus a warm re-read. *)
  let caddr = t.common_base + (((round + index) mod common_pages) * page_size) in
  (match Kernel.resolve_pfn kern task ~addr:caddr with
  | Some _ -> ()
  | None -> (
      match Erebor.Sandbox.page_fault mgr t.sb ~addr:caddr ~kind:Hw.Fault.Read with
      | Ok () -> ()
      | Error e -> failwith e));
  user_touch caddr;
  (match
     Erebor.Sandbox.handle_syscall mgr t.sb
       (Kernel.Syscall.Ioctl
          { fd = Erebor.Sandbox.channel_fd t.sb; request = 1; arg = Bytes.empty })
   with
  | Kernel.Syscall.Rbytes _ -> ()
  | _ -> failwith "density: input fetch failed");
  (match
     Erebor.Sandbox.handle_syscall mgr t.sb
       (Kernel.Syscall.Ioctl
          { fd = Erebor.Sandbox.channel_fd t.sb; request = 2;
            arg = Bytes.make 32 'r' })
   with
  | Kernel.Syscall.Rok -> ()
  | _ -> failwith "density: output emit failed");
  Erebor.Sandbox.timer_tick mgr t.sb

let requests_per_tenant = 8

let scale_point ~backend ~tenants =
  let m =
    Sim.Machine.create ~backend ~frames:65536 ~cma_frames:16384
      ~setting:Sim.Config.Erebor_full ()
  in
  let mgr = Option.get (Sim.Machine.manager m) in
  (* Provision and seal every tenant up front — the steady multi-tenant
     state the curve measures. *)
  let tenant_setup = Array.init tenants (provision mgr) in
  let before = Sim.Machine.snapshot m in
  (* Round-robin request traffic; each request is timed on the virtual
     clock around the monitored request skeleton. *)
  let clock = Sim.Machine.clock m in
  let per_tenant = Array.make tenants [] in
  for round = 0 to requests_per_tenant - 1 do
    Array.iteri
      (fun i t ->
        if Erebor.Sandbox.kill_reason t.sb = None then begin
          let t0 = Hw.Cycles.now clock in
          serve m t ~round ~index:i;
          per_tenant.(i) <- (Hw.Cycles.now clock - t0) :: per_tenant.(i)
        end)
      tenant_setup
  done;
  let after = Sim.Machine.snapshot m in
  let d = Sim.Stats.diff ~before ~after in
  let completed = requests_per_tenant * tenants in
  let tenant_rows =
    List.mapi
      (fun i { sb; _ } ->
        let sorted =
          let a = Array.of_list per_tenant.(i) in
          Array.sort compare a;
          a
        in
        {
          tenant_id = Erebor.Sandbox.id sb;
          tenant_name = Erebor.Sandbox.name sb;
          treqs = Array.length sorted;
          t_p50 = Obs.Histogram.nearest_rank sorted ~p:0.50;
          t_p99 = Obs.Histogram.nearest_rank sorted ~p:0.99;
        })
      (Array.to_list tenant_setup)
  in
  let worst_p99 =
    List.fold_left (fun acc r -> max acc r.t_p99) 0 tenant_rows
  in
  let monitor = Erebor.Sandbox.manager_monitor mgr in
  let guard = Erebor.Monitor.guard monitor in
  let confined_frames = tenants * confined_pages_per_tenant in
  let ptp_frames = Erebor.Mmu_guard.ptp_count guard in
  let common_frames =
    Erebor.Sandbox.common_instance_frames mgr ~name:common_instance
  in
  let violations = adversarial_probe m mgr backend in
  {
    sbackend = backend;
    tenants;
    confined_frames;
    ptp_frames;
    common_frames;
    frames_per_tenant =
      float_of_int (confined_frames + ptp_frames + common_frames)
      /. float_of_int tenants;
    emc_per_request = float_of_int d.Sim.Stats.emc_total /. float_of_int completed;
    emc_interference_pct = 0.0;   (* filled against the 1-tenant row below *)
    worst_p99;
    tenant_rows;
    violations;
  }

let full_counts = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
let smoke_counts = [ 1; 2; 4 ]

let scaling ?jobs ?(smoke = false) ?(backends = default_backends)
    ?tenant_counts () =
  let counts =
    match tenant_counts with
    | Some c -> c
    | None -> if smoke then smoke_counts else full_counts
  in
  let tasks =
    List.concat_map (fun b -> List.map (fun n -> (b, n)) counts) backends
  in
  let rows =
    Sim.Runner.map_list ?jobs
      (fun (backend, tenants) -> scale_point ~backend ~tenants)
      tasks
  in
  (* Interference is relative to the same backend's least-dense point. *)
  let solo backend =
    match
      List.filter (fun r -> r.sbackend = backend) rows
      |> List.sort (fun a b -> compare a.tenants b.tenants)
    with
    | base :: _ -> base.emc_per_request
    | [] -> 0.0
  in
  List.map
    (fun r ->
      let base = solo r.sbackend in
      {
        r with
        emc_interference_pct =
          (if base > 0.0 then 100.0 *. ((r.emc_per_request /. base) -. 1.0)
           else 0.0);
      })
    rows
