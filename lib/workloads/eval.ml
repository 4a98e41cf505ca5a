(* Experiment drivers for every table and figure in §9. *)

type transition_row = {
  transition : string;
  cycles : int;
  ratio_vs_emc : float;
  paper_cycles : int;
}

let measure clock f =
  let t0 = Hw.Cycles.now clock in
  f ();
  Hw.Cycles.now clock - t0

(* [?instrument] lets callers attach passive sinks (windows, recorders) to
   each bench machine's emitter before it boots; the measured numbers must
   not move — the bench gate's byte-identity check rides on this hook. When
   absent the machine makes its own emitter, exactly as before. *)
let bench_machine ?backend ?instrument ~setting () =
  match instrument with
  | None -> Sim.Machine.create ?backend ~frames:16384 ~cma_frames:1024 ~setting ()
  | Some f ->
      let obs = Obs.Emitter.create () in
      f obs;
      Sim.Machine.create ~obs ?backend ~frames:16384 ~cma_frames:1024 ~setting ()

let table3 ?backend ?instrument () =
  (* EMC: an empty monitor call through the gate. *)
  let full = bench_machine ?backend ?instrument ~setting:Sim.Config.Erebor_full () in
  let gate =
    match Sim.Machine.manager full with
    | Some mgr -> Erebor.Monitor.gate (Erebor.Sandbox.manager_monitor mgr)
    | None -> assert false
  in
  let emc = measure (Sim.Machine.clock full) (fun () -> Erebor.Gate.call gate (fun () -> ())) in
  (* SYSCALL: an empty syscall on a native machine. *)
  let native = bench_machine ?instrument ~setting:Sim.Config.Native () in
  let kern = Sim.Machine.kern native in
  let task = Kernel.create_task kern ~name:"bench" ~kind:Kernel.Task.Normal in
  let syscall =
    measure (Sim.Machine.clock native) (fun () ->
        ignore (Kernel.syscall kern task Kernel.Syscall.Getpid))
  in
  (* TDCALL: a guest hypercall in a TD. *)
  let tdcall =
    measure (Sim.Machine.clock native) (fun () ->
        ignore (kern.Kernel.privops.Kernel.Privops.tdcall (Tdx.Ghci.Vmcall Tdx.Ghci.Hlt)))
  in
  (* VMCALL: a hypercall in a normal (non-TD) guest — no TDX module context
     protection, taken from the calibrated model. *)
  let vmcall = Hw.Cycles.Cost.vmcall_roundtrip in
  let ratio v = float_of_int v /. float_of_int emc in
  [
    { transition = "EMC"; cycles = emc; ratio_vs_emc = ratio emc; paper_cycles = 1224 };
    { transition = "SYSCALL"; cycles = syscall; ratio_vs_emc = ratio syscall; paper_cycles = 684 };
    { transition = "TDCALL"; cycles = tdcall; ratio_vs_emc = ratio tdcall; paper_cycles = 5276 };
    { transition = "VMCALL"; cycles = vmcall; ratio_vs_emc = ratio vmcall; paper_cycles = 4031 };
  ]

type privop_row = {
  op : string;
  native_cycles : int;
  erebor_cycles : int;
  slowdown : float;
  paper_native : int;
  paper_erebor : int;
}

let table4 ?backend ?instrument () =
  let run_setting setting =
    let m = bench_machine ?backend ?instrument ~setting () in
    let kern = Sim.Machine.kern m in
    let ops = kern.Kernel.privops in
    let clock = Sim.Machine.clock m in
    let pte_addr = Hw.Phys_mem.addr_of_pfn kern.Kernel.kernel_root + (8 * 200) in
    let mmu = measure clock (fun () -> ops.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty) in
    let cr =
      measure clock (fun () -> ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap true)
    in
    let msr = measure clock (fun () -> ops.Kernel.Privops.write_msr Hw.Msr.ia32_efer 1L) in
    let idt = measure clock (fun () -> ops.Kernel.Privops.lidt (Hw.Idt.create ())) in
    let ghci =
      match setting with
      | Sim.Config.Native ->
          measure clock (fun () ->
              ignore
                (ops.Kernel.Privops.tdcall (Tdx.Ghci.Tdreport { report_data = Bytes.empty })))
      | _ ->
          let monitor =
            Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))
          in
          measure clock (fun () ->
              ignore (Erebor.Monitor.tdreport monitor ~report_data:Bytes.empty))
    in
    (* SMAP: the bare stac/clac pair (the user-copy payload factored out). *)
    let smap =
      match setting with
      | Sim.Config.Native -> Hw.Cycles.Cost.stac_native
      | _ -> Hw.Cycles.Cost.emc_roundtrip + Hw.Cycles.Cost.emc_service_smap
    in
    (mmu, cr, msr, idt, smap, ghci)
  in
  let n_mmu, n_cr, n_msr, n_idt, n_smap, n_ghci = run_setting Sim.Config.Native in
  let e_mmu, e_cr, e_msr, e_idt, e_smap, e_ghci = run_setting Sim.Config.Erebor_full in
  let row op native erebor paper_native paper_erebor =
    { op; native_cycles = native; erebor_cycles = erebor;
      slowdown = float_of_int erebor /. float_of_int native; paper_native; paper_erebor }
  in
  [
    row "MMU" n_mmu e_mmu 23 1345;
    row "CR" n_cr e_cr 294 1593;
    row "SMAP" n_smap e_smap 62 1291;
    row "IDT" n_idt e_idt 260 1369;
    row "MSR" n_msr e_msr 364 1613;
    row "GHCI" n_ghci e_ghci 126806 128081;
  ]

type lmbench_row = {
  bench : string;
  native_avg : float;
  erebor_avg : float;
  ratio : float;
  emc_per_sec : float;
}

let fig8 ?jobs () =
  Sim.Runner.map_list ?jobs
    (fun b ->
      let ratio, native, erebor = Lmbench.overhead b in
      {
        bench = b.Lmbench.bench_name;
        native_avg = native.Lmbench.avg_cycles;
        erebor_avg = erebor.Lmbench.avg_cycles;
        ratio;
        emc_per_sec = erebor.Lmbench.emc_per_sec;
      })
    Lmbench.benches

type program_row = {
  program : string;
  setting : Sim.Config.setting;
  overhead_pct : float;
  init_overhead_pct : float;
  time_seconds : float;
  pf_rate : float;
  timer_rate : float;
  ve_rate : float;
  emc_rate : float;
  confined_mb : int;
  common_mb : int;
  output_bytes : int;
}

let all_programs =
  [
    ("llama.cpp", Llm.spec);
    ("yolo", Imageproc.spec);
    ("drugbank", Retrieval.spec);
    ("graphchi", Graph.spec);
    ("unicorn", Ids.spec);
  ]

let fig9 ?jobs () =
  (* Every (program, setting) machine is independent: flatten to one task
     list, fan it across the domain pool, then regroup. Row order matches
     the sequential driver exactly (programs outer, settings inner). *)
  let tasks =
    List.concat_map
      (fun (program, spec_fn) ->
        List.map (fun setting -> (program, spec_fn, setting)) Sim.Config.all)
      all_programs
  in
  let results =
    Sim.Runner.map_list ?jobs
      (fun (_, spec_fn, setting) -> Sim.Machine.run_fresh ~setting (spec_fn ()))
      tasks
  in
  let runs =
    List.map2 (fun (program, spec_fn, setting) r -> (program, spec_fn, setting, r)) tasks results
  in
  let native_of program =
    match
      List.find_opt (fun (p, _, s, _) -> p = program && s = Sim.Config.Native) runs
    with
    | Some (_, _, _, r) -> r
    | None -> assert false
  in
  List.map
    (fun (program, spec_fn, setting, (r : Sim.Machine.run_result)) ->
      let native = native_of program in
      let pct now base = 100.0 *. ((float_of_int now /. float_of_int base) -. 1.0) in
      let spec = spec_fn () in
      {
        program;
        setting;
        overhead_pct = pct r.Sim.Machine.run_cycles native.Sim.Machine.run_cycles;
        init_overhead_pct = pct r.Sim.Machine.init_cycles native.Sim.Machine.init_cycles;
        time_seconds =
          Hw.Cycles.to_seconds r.Sim.Machine.run_cycles
          *. float_of_int Workload.time_scale;
        pf_rate = Sim.Stats.pf_rate r.Sim.Machine.stats;
        timer_rate = Sim.Stats.timer_rate r.Sim.Machine.stats;
        ve_rate = Sim.Stats.ve_rate r.Sim.Machine.stats;
        emc_rate = Sim.Stats.emc_rate r.Sim.Machine.stats;
        confined_mb = spec.Sim.Machine.nominal_confined_mb;
        common_mb =
          (match spec.Sim.Machine.common with Some (_, _, mb) -> mb | None -> 0);
        output_bytes = Bytes.length r.Sim.Machine.output;
      })
    runs

let table6 rows = List.filter (fun r -> r.setting = Sim.Config.Erebor_full) rows

let geomean_overhead rows setting =
  let overs =
    List.filter_map
      (fun r -> if r.setting = setting then Some (1.0 +. (r.overhead_pct /. 100.0)) else None)
      rows
  in
  match overs with
  | [] -> 0.0
  | _ ->
      let logsum = List.fold_left (fun acc v -> acc +. log v) 0.0 overs in
      100.0 *. (exp (logsum /. float_of_int (List.length overs)) -. 1.0)

type netserve_row = {
  server : string;
  file_kb : int;
  native_mbps : float;
  erebor_mbps : float;
  relative : float;
}

(* Cycle attribution: re-run every Fig. 9 (program, setting) machine with an
   [Obs.Attrib] sink attached and decompose its total virtual cycles into
   (privilege domain x phase) contexts. The overhead analysis of §9 becomes
   emergent: the monitor's share is the gate + service spans, the kernel's
   the handler spans, and the invariant [unattributed + sum contexts =
   total] holds exactly because emission never advances the clock. *)

type attrib_row = {
  aprogram : string;
  asetting : Sim.Config.setting;
  total_cycles : int;
  unattributed_cycles : int;
  contexts : (string * string * int) list;
}

let attrib ?jobs ?(smoke = false) () =
  (* Smoke cut for @ci: one program across every setting still exercises
     span nesting, the EMC service phases, and the conservation invariant,
     at a fraction of the full 25-cell sweep. *)
  let programs = if smoke then [ List.hd all_programs ] else all_programs in
  let tasks =
    List.concat_map
      (fun (program, spec_fn) ->
        List.map (fun setting -> (program, spec_fn, setting)) Sim.Config.all)
      programs
  in
  Sim.Runner.map_list ?jobs
    (fun (program, spec_fn, setting) ->
      let obs = Obs.Emitter.create () in
      let attrib = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
      let m = Sim.Machine.create ~obs ~setting () in
      ignore (Sim.Machine.run m (spec_fn ()));
      let total = Hw.Cycles.now (Sim.Machine.clock m) in
      Obs.Attrib.close attrib ~now:total;
      {
        aprogram = program;
        asetting = setting;
        total_cycles = total;
        unattributed_cycles = Obs.Attrib.unattributed attrib;
        contexts =
          List.map
            (fun (d, p, c) ->
              (Obs.Trace.domain_name d, Obs.Trace.phase_name p, c))
            (Obs.Attrib.breakdown attrib);
      })
    tasks

let fig10 ?jobs () =
  let tasks =
    List.concat_map
      (fun server -> List.map (fun file_kb -> (server, file_kb)) Netserve.file_sizes_kb)
      [ Netserve.Ssh; Netserve.Nginx ]
  in
  Sim.Runner.map_list ?jobs
    (fun (server, file_kb) ->
      let requests = max 2 (min 100 (2048 / file_kb)) in
      let native = Netserve.run ~setting:Sim.Config.Native server ~file_kb ~requests in
      let erebor =
        Netserve.run ~setting:Sim.Config.Erebor_full server ~file_kb ~requests
      in
      {
        server = Netserve.server_name server;
        file_kb;
        native_mbps = native.Netserve.mb_per_sec;
        erebor_mbps = erebor.Netserve.mb_per_sec;
        relative = erebor.Netserve.mb_per_sec /. native.Netserve.mb_per_sec;
      })
    tasks

type memshare_row = {
  sandboxes : int;
  shared_frames : int;
  replicated_frames : int;
  saving_pct : float;
}

(* Grow a fleet to [max_sandboxes] sandboxes over a single model instance
   on a fresh machine (llama.cpp's deployment story in §9.2), producing one
   accounting row per fleet size. One cumulative run serves every row, so
   the work is inherently serial; [?jobs] is accepted (perf/ passes it) and
   ignored. *)
let memshare ?jobs:_ ?(max_sandboxes = 8) () =
  let m = Sim.Machine.create ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (Sim.Machine.manager m) in
  let kern = Sim.Machine.kern m in
  let mb = 1024 * 1024 in
  let model_bytes = 4096 * mb / Workload.mem_scale in
  let confined_bytes = 501 * mb / Workload.mem_scale in
  let page = Hw.Phys_mem.page_size in
  let confined_frames = confined_bytes / page in
  let rows = ref [] in
  for n = 1 to max_sandboxes do
    let sb =
      match
        Erebor.Sandbox.create_sandbox mgr ~name:(Printf.sprintf "llama-%d" n)
          ~confined_budget:confined_bytes
      with
      | Ok sb -> sb
      | Error e -> failwith e
    in
    (match Erebor.Sandbox.declare_confined mgr sb ~len:confined_bytes with
    | Ok _ -> ()
    | Error e -> failwith e);
    (match Erebor.Sandbox.attach_common mgr sb ~name:"llama2-7b" ~size:model_bytes with
    | Error e -> failwith e
    | Ok base -> (
        (* The sandbox streams the whole model. *)
        match Kernel.populate kern (Erebor.Sandbox.main_task sb) ~start:base ~len:model_bytes with
        | Ok () -> ()
        | Error e -> failwith e));
    let model_frames = Erebor.Sandbox.common_instance_frames mgr ~name:"llama2-7b" in
    let shared = model_frames + (n * confined_frames) in
    let replicated = n * (model_frames + confined_frames) in
    rows :=
      {
        sandboxes = n;
        shared_frames = shared;
        replicated_frames = replicated;
        saving_pct = 100.0 *. (1.0 -. (float_of_int shared /. float_of_int replicated));
      }
      :: !rows
  done;
  List.rev !rows
