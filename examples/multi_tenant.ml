(* Multi-tenant density: three different services — private retrieval, LLM
   inference and intrusion detection — side by side as mutually-distrusting
   sandboxes in ONE CVM under one monitor, on a pluggable isolation backend.

   Each tenant gets its own address-space root, confined frames, channel fd
   and Policy.tenant limits; the monitor walls them off with protection
   keys (pks, the paper's TDX configuration) or per-tenant memory-
   encryption key ids (tmemk). The example serves two request rounds
   round-robin, prints per-tenant exit statistics (the N>1 form of
   Table 6's columns), terminates one tenant mid-run to show the terminal
   scrub leaves its neighbours untouched, and finishes with an adversarial
   probe that must be denied.

   Run with:  dune exec examples/multi_tenant.exe -- [--backend pks|tmemk]
                                                     [--tenants N]
*)

module C = Workloads.Cli

let hw_key = Crypto.Sha256.digest_string "example hardware key"

let kernel_image =
  {
    Hw.Image.entry = 0x1000;
    sections =
      [
        { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true; writable = false;
          data = Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Ret ] };
      ];
  }

let page = Hw.Phys_mem.page_size

(* The three service kinds; tenant i runs service (i mod 3), so --tenants N
   packs replicas of all three into the same CVM. *)
type service = Retrieval | Llm | Ids

let service_of i =
  match i mod 3 with 0 -> Retrieval | 1 -> Llm | _ -> Ids

let service_name = function
  | Retrieval -> "retrieval"
  | Llm -> "llm"
  | Ids -> "intrusion-detection"

let service_input = function
  | Retrieval -> Workloads.Retrieval.drug_key 42
  | Llm -> "Patient presents with"
  | Ids -> "audit-window-7"

(* The genuine compute kernels from the workloads library — the same code
   the Fig. 9 machines run, here answering each tenant's request. *)
let serve_request service (input : bytes) =
  match service with
  | Retrieval ->
      let rng = Crypto.Drbg.create ~seed:"mt-retrieval" in
      let db = Workloads.Retrieval.synthetic_db ~rng ~entries:256 in
      let key = Bytes.to_string input in
      (match Workloads.Retrieval.Hashmap.get db key with
      | Some r -> Printf.sprintf "%s: %s (%s)" key r.Workloads.Retrieval.name r.Workloads.Retrieval.indication
      | None -> Printf.sprintf "%s: not found" key)
  | Llm ->
      let rng = Crypto.Drbg.create ~seed:"mt-llm" in
      Workloads.Llm.Model.generate Workloads.Llm.default_model ~rng
        ~prompt:(Bytes.to_string input) ~n:24
  | Ids ->
      let rng = Crypto.Drbg.create ~seed:"mt-ids" in
      let baseline = Workloads.Ids.baseline ~rng in
      let log = Workloads.Ids.synthetic_log ~rng ~events:200 ~anomaly_rate:0.05 in
      Printf.sprintf "anomaly score %.3f" (Workloads.Ids.score ~baseline log)

let backend_flag =
  C.flag ~docv:"NAME" [ "--backend" ]
    "Isolation backend: pks (protection keys, the paper's TDX \
     configuration) or tmemk (per-tenant memory-encryption key ids)."

let tenants_flag =
  C.flag ~docv:"N" [ "--tenants" ]
    "Number of mutually-distrusting tenants to pack into the CVM \
     (default 3: one replica of each service)."

let main p =
  let backend =
    match C.str p backend_flag with
    | None -> Erebor.Isolation.Pks
    | Some s -> (
        match Erebor.Isolation.kind_of_name s with
        | Ok b -> b
        | Error e -> C.fail p (Printf.sprintf "--backend: %s" e))
  in
  let tenants = C.int_of p ~min:1 ~default:3 tenants_flag in
  Printf.printf "Multi-tenant CVM: %d tenants on the %s backend\n" tenants
    (Erebor.Isolation.kind_name backend);

  let mem = Hw.Phys_mem.create ~frames:65536 in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:2_000_000 () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let monitor =
    Erebor.Monitor.install ~backend ~cpu ~mem ~td
      ~firmware:(Bytes.of_string "OVMF") ~monitor_frames:32
      ~device_shared_frames:32 ()
  in
  let kern =
    Result.get_ok
      (Erebor.Monitor.boot_kernel monitor ~kernel_image ~reserved_frames:128
         ~cma_frames:16384)
  in
  let mgr = Erebor.Sandbox.create_manager ~monitor ~kern in

  (* Provision every tenant: own confined region, a shared reference corpus
     in common memory, per-tenant policy (the IDS replicas run with an
     output cap, demonstrating Policy.tenant limits). *)
  let tenant_list =
    List.init tenants (fun i ->
        let service = service_of i in
        let name = Printf.sprintf "%s-%d" (service_name service) (i + 1) in
        let policy =
          let base = Erebor.Policy.default_tenant ~label:name in
          match service with
          | Ids -> { base with Erebor.Policy.max_output_bytes = 4096 }
          | Retrieval | Llm -> base
        in
        let sb =
          Result.get_ok
            (Erebor.Sandbox.create_sandbox ~policy mgr ~name
               ~confined_budget:(32 * page))
        in
        let base_addr =
          Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:(16 * page))
        in
        let common_addr =
          Result.get_ok
            (Erebor.Sandbox.attach_common mgr sb ~name:"reference-corpus"
               ~size:(32 * page))
        in
        ignore
          (Result.get_ok
             (Erebor.Sandbox.load_client_data mgr sb
                (Bytes.of_string (service_input service))));
        (sb, service, base_addr, common_addr))
  in
  Printf.printf "[cvm] %d sandboxes sealed\n" (Erebor.Sandbox.sandbox_count mgr);

  (* Serve round-robin: each request switches into the tenant's address
     space (the backend's tenant_enter point — TME-MK swaps its active key
     here), touches confined memory through the MMU, and moves input/output
     over the monitored channel ioctl. *)
  let serve round (sb, service, base_addr, common_addr) =
    if Erebor.Sandbox.kill_reason sb = None
       && Erebor.Sandbox.phase sb <> Erebor.Sandbox.Terminated
    then begin
      let task = Erebor.Sandbox.main_task sb in
      kern.Kernel.privops.Kernel.Privops.write_cr3
        ~root_pfn:task.Kernel.Task.root_pfn;
      (* One corpus page per round, demand-paged on first touch — the
         frames behind "reference-corpus" are shared across tenants. *)
      let cpage = common_addr + ((round mod 32) * page) in
      (match Kernel.resolve_pfn kern task ~addr:cpage with
      | Some _ -> ()
      | None ->
          Result.get_ok
            (Erebor.Sandbox.page_fault mgr sb ~addr:cpage ~kind:Hw.Fault.Read));
      cpu.Hw.Cpu.mode <- Hw.Cpu.User;
      ignore (Hw.Cpu.read_u8 cpu cpage);
      for p = 0 to 3 do
        ignore (Hw.Cpu.read_u8 cpu (base_addr + (((round + p) mod 16) * page)))
      done;
      cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
      let input =
        match
          Erebor.Sandbox.handle_syscall mgr sb
            (Kernel.Syscall.Ioctl
               { fd = Erebor.Sandbox.channel_fd sb; request = 1; arg = Bytes.empty })
        with
        | Kernel.Syscall.Rbytes b -> b
        | _ -> failwith "input fetch failed"
      in
      let answer = serve_request service input in
      (match
         Erebor.Sandbox.handle_syscall mgr sb
           (Kernel.Syscall.Ioctl
              { fd = Erebor.Sandbox.channel_fd sb; request = 2;
                arg = Bytes.of_string answer })
       with
      | Kernel.Syscall.Rok -> ()
      | _ -> failwith "output emit failed");
      Erebor.Sandbox.timer_tick mgr sb;
      if round = 0 && Erebor.Sandbox.id sb <= 3 then
        Printf.printf "[%s] %s\n" (Erebor.Sandbox.name sb)
          (String.sub answer 0 (min 48 (String.length answer)))
    end
  in
  List.iter (serve 0) tenant_list;
  Printf.printf "[cvm] %d frames back the shared corpus across %d tenants\n"
    (Erebor.Sandbox.common_instance_frames mgr ~name:"reference-corpus")
    tenants;

  (* Terminate the first tenant between rounds: its confined frames are
     scrubbed and freed while every other tenant keeps serving. *)
  let first, _, _, _ = List.hd tenant_list in
  Erebor.Sandbox.terminate mgr first;
  Printf.printf "[cvm] terminated %s (terminal scrub); siblings keep serving\n"
    (Erebor.Sandbox.name first);
  List.iter (serve 1) tenant_list;

  (* Per-tenant exit accounting — Table 6's columns stay attributable with
     N tenants because the counters are per-sandbox. *)
  print_endline "[cvm] per-tenant exit statistics:";
  List.iter
    (fun row ->
      Format.printf "  %a@." Sim.Stats.pp_sandbox_row
        (Sim.Stats.sandbox_row_of row))
    (Erebor.Sandbox.exit_stats_all mgr);

  (* Adversarial probe: a compromised-kernel context tries to map a live
     tenant's confined frame. The monitor must refuse, whatever the
     backend. *)
  let victim_sb, _, victim_base, _ =
    List.nth tenant_list (min 1 (tenants - 1))
  in
  let victim_pfn =
    Option.get
      (Kernel.resolve_pfn kern (Erebor.Sandbox.main_task victim_sb)
         ~addr:victim_base)
  in
  let attacker = Kernel.create_task kern ~name:"adversary" ~kind:Kernel.Task.Normal in
  let a_addr =
    Kernel.mmap kern attacker ~len:page ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon
  in
  Result.get_ok (Kernel.handle_page_fault kern attacker ~addr:a_addr ~kind:Hw.Fault.Write);
  let leaf_addr =
    Option.get
      (Hw.Page_table.leaf_addr mem ~root_pfn:attacker.Kernel.Task.root_pfn a_addr)
  in
  (match
     kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf_addr
       (Hw.Pte.make ~pfn:victim_pfn { Hw.Pte.default_flags with user = true })
   with
  | () ->
      Printf.eprintf "[cvm] ISOLATION VIOLATION: cross-tenant map accepted\n";
      exit 1
  | exception Erebor.Monitor.Policy_violation reason ->
      Printf.printf "[cvm] cross-tenant map denied by the monitor (%s)\n" reason);

  List.iter (fun (sb, _, _, _) -> Erebor.Sandbox.terminate mgr sb) tenant_list;
  Printf.printf "[cvm] done: %d tenants served and scrubbed, 0 violations\n"
    tenants

let () =
  C.run ~prog:"multi_tenant" ~default:"run"
    ~doc:"Three services as mutually-distrusting sandboxes in one CVM"
    [
      C.cmd ~name:"run"
        ~doc:"Provision, serve two rounds, scrub, adversarial probe (the \
              default)"
        ~flags:[ backend_flag; tenants_flag ]
        main;
    ]
