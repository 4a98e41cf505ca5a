(* Tests for the paper's optional / future-work features implemented beyond
   the base system: batched MMU updates (§9.1), side-channel mitigations
   (§11), huge pages with forced splitting (§7), verified dynamic kernel
   code (§7), and warm-start sandbox pools (§9.2). *)

module M = Sim.Machine

(* An Erebor machine with an audit chain on its emitter from boot on. *)
let machine ?backend ?(frames = 32768) ?(cma_frames = 8192) () =
  let obs = Obs.Emitter.create () in
  Obs.Emitter.set_audit obs (Some (Obs.Audit.create ~key:M.hw_key));
  M.create ~obs ?backend ~frames ~cma_frames ~setting:Sim.Config.Erebor_full ()

let monitor st = Option.get (M.monitor st)
let manager st = Option.get (M.manager st)

(* ------------------------------------------------------------------ *)
(* Batched MMU updates (§9.1)                                          *)
(* ------------------------------------------------------------------ *)

let declare_cost st ~batched ~pages =
  Kernel.set_mmu_batching (M.kern st) batched;
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox (manager st)
         ~name:(Printf.sprintf "b%b" batched)
         ~confined_budget:(pages * 4096))
  in
  let t0 = Hw.Cycles.now (M.kern st).Kernel.clock in
  let base = Result.get_ok (Erebor.Sandbox.declare_confined (manager st) sb ~len:(pages * 4096)) in
  let cost = Hw.Cycles.now (M.kern st).Kernel.clock - t0 in
  Kernel.set_mmu_batching (M.kern st) false;
  (cost, sb, base)

let test_batching_cheaper_same_result () =
  let st = machine () in
  let pages = 256 in
  let unbatched_cost, sb1, base1 = declare_cost st ~batched:false ~pages in
  let batched_cost, sb2, base2 = declare_cost st ~batched:true ~pages in
  Alcotest.(check bool) "batching saves EMC round trips" true
    (batched_cost < unbatched_cost);
  (* Rough shape: the unbatched path pays ~1224 cycles more per page. *)
  Alcotest.(check bool) "saves at least half the gate cost" true
    (unbatched_cost - batched_cost > pages * Hw.Cycles.Cost.emc_roundtrip / 2);
  (* Both produce fully-pinned, policy-checked mappings. *)
  List.iter
    (fun (sb, base) ->
      for i = 0 to pages - 1 do
        match
          Kernel.resolve_pfn (M.kern st) (Erebor.Sandbox.main_task sb) ~addr:(base + (i * 4096))
        with
        | Some _ -> ()
        | None -> Alcotest.fail "page missing after populate"
      done)
    [ (sb1, base1); (sb2, base2) ]

let test_batch_policy_still_enforced () =
  let st = machine () in
  (* A batch containing a store outside any registered PTP must be refused
     atomically at that entry. *)
  match
    (M.kern st).Kernel.privops.Kernel.Privops.write_pte_batch
      [| (Hw.Phys_mem.addr_of_pfn 9000, Hw.Pte.make ~pfn:5 Hw.Pte.default_flags) |]
  with
  | () -> Alcotest.fail "stray batched store accepted"
  | exception Erebor.Monitor.Policy_violation _ -> ()

(* ------------------------------------------------------------------ *)
(* Side-channel mitigations (§11)                                      *)
(* ------------------------------------------------------------------ *)

let test_mitigations_rate_limit () =
  let clock = Hw.Cycles.clock () in
  let mem = Hw.Phys_mem.create ~frames:16 in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let m =
    Erebor.Mitigations.create ~clock ~cpu
      { Erebor.Mitigations.exit_rate_limit = Some 10; output_quantum = None;
        flush_on_exit = false }
  in
  for _ = 1 to 10 do
    Erebor.Mitigations.on_sandbox_exit m
  done;
  Alcotest.(check int) "under budget: no stalls" 0 (Erebor.Mitigations.stalls m);
  let t0 = Hw.Cycles.now clock in
  Erebor.Mitigations.on_sandbox_exit m;
  Alcotest.(check int) "over budget: stalled once" 1 (Erebor.Mitigations.stalls m);
  Alcotest.(check bool) "stalled to the next window" true
    (Hw.Cycles.now clock - t0 > 1_000_000_000)

let test_mitigations_quantized_output () =
  let clock = Hw.Cycles.clock () in
  let mem = Hw.Phys_mem.create ~frames:16 in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let m =
    Erebor.Mitigations.create ~clock ~cpu
      { Erebor.Mitigations.exit_rate_limit = None; output_quantum = Some 10_000;
        flush_on_exit = false }
  in
  Hw.Cycles.advance clock 12_345;
  Erebor.Mitigations.release_output m;
  Alcotest.(check int) "release on the grid" 0 (Hw.Cycles.now clock mod 10_000);
  let at = Hw.Cycles.now clock in
  Erebor.Mitigations.release_output m;
  Alcotest.(check int) "already on the grid: no wait" at (Hw.Cycles.now clock)

let test_mitigations_flush_cost () =
  let clock = Hw.Cycles.clock () in
  let mem = Hw.Phys_mem.create ~frames:16 in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let m =
    Erebor.Mitigations.create ~clock ~cpu
      { Erebor.Mitigations.none with Erebor.Mitigations.flush_on_exit = true }
  in
  let t0 = Hw.Cycles.now clock in
  Erebor.Mitigations.on_sandbox_exit m;
  Alcotest.(check bool) "flush costs cycles" true (Hw.Cycles.now clock > t0);
  Alcotest.(check int) "flush counted" 1 (Erebor.Mitigations.flushes m)

let test_mitigations_wired_into_sandbox () =
  let st = machine () in
  let mgr = manager st in
  Erebor.Sandbox.set_mitigations mgr
    { Erebor.Mitigations.exit_rate_limit = Some 2; output_quantum = None;
      flush_on_exit = false };
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox mgr ~name:"m" ~confined_budget:(16 * 4096))
  in
  ignore (Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:4096));
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  (* Hammer exits: the third in the window must stall. *)
  for _ = 1 to 4 do
    Erebor.Sandbox.handle_interrupt mgr sb (fun () -> ())
  done;
  match Erebor.Sandbox.mitigation_stats mgr with
  | Some (stalls, stall_cycles, _) ->
      Alcotest.(check bool) "stalled" true (stalls >= 1 && stall_cycles > 0)
  | None -> Alcotest.fail "mitigations not armed"

(* ------------------------------------------------------------------ *)
(* Huge pages + forced splitting (§7)                                  *)
(* ------------------------------------------------------------------ *)

let make_raw_env () =
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let next = ref 1 in
  let alloc_ptp () =
    let pfn = !next in
    incr next;
    pfn
  in
  let write_pte ~pte_addr pte = Hw.Phys_mem.write_u64 mem pte_addr pte in
  let root = alloc_ptp () in
  Hw.Cpu.write_cr3 cpu ~root_pfn:root;
  (mem, cpu, alloc_ptp, write_pte, root)

let test_huge_map_translate () =
  let mem, cpu, alloc_ptp, write_pte, root = make_raw_env () in
  let vaddr = 0x4020_0000 (* 2MiB aligned *) in
  Hw.Page_table.map_huge mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
    (Hw.Pte.make ~pfn:1024 Hw.Pte.default_flags);
  (* The walk resolves different 4K offsets to different frames. *)
  (match Hw.Page_table.walk mem ~root_pfn:root vaddr with
  | Some w ->
      Alcotest.(check bool) "huge" true w.Hw.Page_table.huge;
      Alcotest.(check int) "first frame" 1024 w.Hw.Page_table.pfn
  | None -> Alcotest.fail "unmapped");
  (match Hw.Page_table.walk mem ~root_pfn:root (vaddr + (7 * 4096)) with
  | Some w -> Alcotest.(check int) "seventh frame" 1031 w.Hw.Page_table.pfn
  | None -> Alcotest.fail "unmapped");
  (* And the CPU reads/writes through it. *)
  Hw.Cpu.write_u64 cpu (vaddr + (5 * 4096) + 16) 77L;
  Alcotest.(check int64) "cpu access via huge page" 77L
    (Hw.Phys_mem.read_raw_u64 mem (Hw.Phys_mem.addr_of_pfn 1029 + 16));
  Alcotest.check_raises "unaligned vaddr"
    (Invalid_argument "Page_table.map_huge: vaddr must be 2MiB-aligned") (fun () ->
      Hw.Page_table.map_huge mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr:0x1000
        (Hw.Pte.make ~pfn:1024 Hw.Pte.default_flags))

let test_forced_splitting () =
  let st = machine ~frames:65536 () in
  let kern = M.kern st in
  let mem = M.mem st in
  let guard = Erebor.Monitor.guard (monitor st) in
  let alloc_ptp () = Option.get (Kernel.Alloc.alloc_zeroed kern.Kernel.frame_alloc mem) in
  (* Build a huge kernel mapping (trusted), 2 MiB worth of direct-map-ish
     memory at an unused kernel address. *)
  let vaddr = Kernel.Layout.kernel_text_base + 0x4000_0000 in
  let base_frame = 16384 (* 2MiB-aligned, free *) in
  let write_pte ~pte_addr pte =
    match Erebor.Mmu_guard.write_pte guard ~trusted:true ~pte_addr pte with
    | Ok () -> ()
    | Error e -> failwith e
  in
  Hw.Page_table.map_huge mem ~write_pte ~alloc_ptp
    ~root_pfn:kern.Kernel.kernel_root ~vaddr
    (Hw.Pte.make ~pfn:base_frame Hw.Pte.default_flags);
  (* Retag one 4K page inside it with the monitor key: forces a split. *)
  (match
     Erebor.Mmu_guard.protect_page_splitting guard
       ~root_pfn:kern.Kernel.kernel_root
       ~vaddr:(vaddr + (9 * 4096))
       ~key:Erebor.Policy.key_monitor ~writable:false ~alloc_ptp
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The mapping is now 4K-grained; only page 9 carries the key. *)
  (match Hw.Page_table.walk mem ~root_pfn:kern.Kernel.kernel_root (vaddr + (9 * 4096)) with
  | Some w ->
      Alcotest.(check bool) "split" false w.Hw.Page_table.huge;
      Alcotest.(check int) "keyed" Erebor.Policy.key_monitor (Hw.Pte.pkey w.Hw.Page_table.pte);
      Alcotest.(check bool) "read-only" false (Hw.Pte.writable w.Hw.Page_table.pte);
      Alcotest.(check int) "same frame" (base_frame + 9) w.Hw.Page_table.pfn
  | None -> Alcotest.fail "mapping lost");
  (match Hw.Page_table.walk mem ~root_pfn:kern.Kernel.kernel_root (vaddr + (8 * 4096)) with
  | Some w ->
      Alcotest.(check int) "neighbour unkeyed" 0 (Hw.Pte.pkey w.Hw.Page_table.pte);
      Alcotest.(check bool) "neighbour writable" true (Hw.Pte.writable w.Hw.Page_table.pte);
      Alcotest.(check int) "neighbour frame" (base_frame + 8) w.Hw.Page_table.pfn
  | None -> Alcotest.fail "neighbour lost");
  (* The protected page now faults on kernel writes (PKS). *)
  (match Hw.Cpu.write_u64 (M.cpu st) (vaddr + (9 * 4096)) 1L with
  | () -> Alcotest.fail "write to keyed page succeeded"
  | exception Hw.Fault.Fault (Hw.Fault.Page_fault { pkey_violation = true; _ }) -> ()
  | exception Hw.Fault.Fault f -> Alcotest.failf "wrong fault %s" (Hw.Fault.to_string f));
  (* Neighbour pages still writable. *)
  Hw.Cpu.write_u64 (M.cpu st) (vaddr + (8 * 4096)) 1L

let test_untrusted_huge_policy () =
  let st = machine ~frames:65536 () in
  let kern = M.kern st in
  let ops = kern.Kernel.privops in
  (* Find the PD slot for a kernel vaddr by preparing intermediates. *)
  let vaddr = Kernel.Layout.kernel_text_base + 0x6000_0000 in
  let alloc_ptp () = Option.get (Kernel.Alloc.alloc_zeroed kern.Kernel.frame_alloc (M.mem st)) in
  (* Build down to the PD level with individual (checked) stores. *)
  let pt_slot =
    Hw.Page_table.prepare_leaf (M.mem st)
      ~write_pte:(fun ~pte_addr pte -> ops.Kernel.Privops.write_pte ~pte_addr pte)
      ~alloc_ptp ~root_pfn:kern.Kernel.kernel_root ~vaddr
  in
  ignore pt_slot;
  (* The PD slot is the parent of the PT containing pt_slot; rebuild it. *)
  let i4, i3, i2, _ = Hw.Page_table.split vaddr in
  let l4 = kern.Kernel.kernel_root in
  let entry mem pfn idx = Hw.Pte.pfn (Hw.Phys_mem.read_u64 mem (Hw.Phys_mem.addr_of_pfn pfn + (8 * idx))) in
  let l3 = entry (M.mem st) l4 i4 in
  let l2 = entry (M.mem st) l3 i3 in
  let pd_slot = Hw.Phys_mem.addr_of_pfn l2 + (8 * i2) in
  (* Clear the interior entry first so the huge install is not a re-point. *)
  ops.Kernel.Privops.write_pte ~pte_addr:pd_slot Hw.Pte.empty;
  (* A huge leaf over free, aligned frames is accepted... *)
  ops.Kernel.Privops.write_pte ~pte_addr:pd_slot
    (Hw.Pte.set_huge (Hw.Pte.make ~pfn:32768 Hw.Pte.default_flags) true);
  (* ...but over classified frames it is refused. *)
  ops.Kernel.Privops.write_pte ~pte_addr:pd_slot Hw.Pte.empty;
  let guard = Erebor.Monitor.guard (monitor st) in
  (match Erebor.Mmu_guard.classify guard ~pfn:(34816 + 5) Erebor.Mmu_guard.Monitor with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    ops.Kernel.Privops.write_pte ~pte_addr:pd_slot
      (Hw.Pte.set_huge (Hw.Pte.make ~pfn:34816 Hw.Pte.default_flags) true)
  with
  | () -> Alcotest.fail "huge leaf over monitor frame accepted"
  | exception Erebor.Monitor.Policy_violation _ -> ()

(* ------------------------------------------------------------------ *)
(* Dynamic kernel code (§7)                                            *)
(* ------------------------------------------------------------------ *)

let test_module_loading () =
  let st = machine () in
  let kern = M.kern st in
  let mem = M.mem st in
  let benign = Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Add (Hw.Isa.R0, Hw.Isa.R1); Hw.Isa.Ret ] in
  (match Kernel.load_module kern ~name:"net_filter" ~code:benign with
  | Ok base -> (
      (* Mapped read-only + executable in the kernel tree. *)
      match Hw.Page_table.walk mem ~root_pfn:kern.Kernel.kernel_root base with
      | Some w ->
          Alcotest.(check bool) "not writable" false (Hw.Pte.writable w.Hw.Page_table.pte);
          Alcotest.(check bool) "executable" false (Hw.Pte.nx w.Hw.Page_table.pte);
          Alcotest.(check bytes) "code in place" benign
            (Hw.Phys_mem.read_bytes mem
               (Hw.Phys_mem.addr_of_pfn w.Hw.Page_table.pfn)
               (Bytes.length benign))
      | None -> Alcotest.fail "module unmapped")
  | Error e -> Alcotest.fail e);
  (* A module smuggling a sensitive instruction is refused. *)
  let evil = Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Wrmsr; Hw.Isa.Ret ] in
  match Kernel.load_module kern ~name:"rootkit" ~code:evil with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sensitive module accepted"

let test_text_poke () =
  let st = machine () in
  let kern = M.kern st in
  let mem = M.mem st in
  let base =
    Result.get_ok
      (Kernel.load_module kern ~name:"patch_target"
         ~code:(Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Nop; Hw.Isa.Ret ]))
  in
  (* Benign patch applies (via the monitor: the page is read-only). *)
  let patch = Hw.Isa.assemble [ Hw.Isa.Cpuid ] in
  (match Kernel.poke_text kern ~vaddr:(base + 4) ~code:patch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Hw.Page_table.walk mem ~root_pfn:kern.Kernel.kernel_root base with
  | Some w ->
      Alcotest.(check bytes) "patched" patch
        (Hw.Phys_mem.read_bytes mem (Hw.Phys_mem.addr_of_pfn w.Hw.Page_table.pfn + 4) 4)
  | None -> Alcotest.fail "unmapped");
  (* Sensitive patch bytes are rejected. *)
  match Kernel.poke_text kern ~vaddr:(base + 4) ~code:(Hw.Isa.assemble [ Hw.Isa.Tdcall ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sensitive poke accepted"

let test_native_accepts_dynamic_code () =
  (* Without Erebor, module loading is unchecked (that's the point). *)
  let st = M.create ~frames:8192 ~cma_frames:1024 ~setting:Sim.Config.Native () in
  match
    Kernel.load_module (M.kern st) ~name:"anything"
      ~code:(Hw.Isa.assemble [ Hw.Isa.Wrmsr ])
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* SEV-style write-protect backend (§10, Table 7)                      *)
(* ------------------------------------------------------------------ *)

let test_wp_backend_boots () =
  let st = machine ~backend:Erebor.Isolation.Write_protect () in
  Alcotest.(check bool) "no PKS on this platform" false (Hw.Cr.pks (M.cpu st).Hw.Cpu.cr);
  Alcotest.(check bool) "WP on in normal mode" true (Hw.Cr.wp (M.cpu st).Hw.Cpu.cr);
  Alcotest.(check bool) "kernel booted" true (Erebor.Monitor.kernel (monitor st) <> None)

let test_wp_protects_ptps () =
  let st = machine ~backend:Erebor.Isolation.Write_protect () in
  let kern = M.kern st in
  Kernel.ensure_direct_map kern ~pfn:kern.Kernel.kernel_root;
  let va = Kernel.Layout.direct_map (Hw.Phys_mem.addr_of_pfn kern.Kernel.kernel_root) in
  (* Readable, like under PKS... *)
  ignore (Hw.Cpu.read_u64 (M.cpu st) va);
  (* ...but kernel writes trip CR0.WP on the read-only mapping (a plain
     protection fault, not a pkey fault — no PKS here). *)
  (match Hw.Cpu.write_u64 (M.cpu st) va 0xBADL with
  | () -> Alcotest.fail "PTP writable from normal mode"
  | exception Hw.Fault.Fault (Hw.Fault.Page_fault { pkey_violation = false; present = true; _ })
    -> ()
  | exception Hw.Fault.Fault f -> Alcotest.failf "wrong fault %s" (Hw.Fault.to_string f));
  (* Inside the gate, the monitor context may write (WP is cleared). *)
  let gate = Erebor.Monitor.gate (monitor st) in
  Erebor.Gate.call gate (fun () ->
      let before = Hw.Phys_mem.read_raw_u64 (M.mem st) (Hw.Phys_mem.addr_of_pfn kern.Kernel.kernel_root + 8 * 300) in
      Hw.Cpu.write_u64 (M.cpu st) (va + (8 * 300)) before);
  (* And WP is re-asserted afterwards. *)
  Alcotest.(check bool) "WP restored after EMC" true (Hw.Cr.wp (M.cpu st).Hw.Cpu.cr)

let test_wp_interrupt_gate () =
  let st = machine ~backend:Erebor.Isolation.Write_protect () in
  let gate = Erebor.Monitor.gate (monitor st) in
  let during = ref true and after = ref false in
  Erebor.Gate.call gate (fun () ->
      Erebor.Gate.interrupt_during_emc gate (fun () -> during := Hw.Cr.wp (M.cpu st).Hw.Cpu.cr);
      after := Hw.Cr.wp (M.cpu st).Hw.Cpu.cr);
  Alcotest.(check bool) "WP re-asserted during IRQ" true !during;
  Alcotest.(check bool) "privilege restored after IRQ" false !after

let test_wp_sandbox_protection_holds () =
  (* The sandbox story is backend-independent. *)
  let st = machine ~backend:Erebor.Isolation.Write_protect () in
  let mgr = manager st in
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox mgr ~name:"wp-sb" ~confined_budget:(32 * 4096))
  in
  let base = Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:(8 * 4096)) in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret")));
  (* Post-data syscall kill. *)
  (match Erebor.Sandbox.handle_syscall mgr sb (Kernel.Syscall.Open { path = "/x" }) with
  | Kernel.Syscall.Rerr _ -> ()
  | _ -> Alcotest.fail "syscall allowed");
  (* SMAP still blocks the kernel from sandbox memory. *)
  (M.kern st).Kernel.privops.Kernel.Privops.write_cr3
    ~root_pfn:(Erebor.Sandbox.main_task sb).Kernel.Task.root_pfn;
  match Hw.Cpu.read_u8 (M.cpu st) base with
  | _ -> Alcotest.fail "kernel read sandbox memory"
  | exception Hw.Fault.Fault (Hw.Fault.Page_fault _) -> ()

(* ------------------------------------------------------------------ *)
(* Warm-start pool (§9.2)                                              *)
(* ------------------------------------------------------------------ *)

let test_pool_warm_vs_cold () =
  let st = machine ~cma_frames:16384 () in
  let clock = (M.kern st).Kernel.clock in
  let pool =
    Result.get_ok
      (Sim.Pool.create ~mgr:(manager st) ~name_prefix:"warm" ~heap_bytes:(128 * 4096)
         ~threads:2 ~size:2 ())
  in
  Alcotest.(check int) "two ready" 2 (Sim.Pool.ready pool);
  (* Warm acquisition is (virtually) free. *)
  let t0 = Hw.Cycles.now clock in
  let entry = Result.get_ok (Sim.Pool.acquire pool) in
  Alcotest.(check int) "warm hit costs nothing" t0 (Hw.Cycles.now clock);
  Alcotest.(check int) "one left" 1 (Sim.Pool.ready pool);
  (* The warm sandbox is immediately usable for a client session. *)
  ignore
    (Result.get_ok (Erebor.Sandbox.load_client_data (manager st) entry.Sim.Pool.sb (Bytes.of_string "q")));
  ignore (Result.get_ok (Sim.Pool.acquire pool));
  (* Pool empty: the next acquire cold-boots, paying init now. *)
  let t1 = Hw.Cycles.now clock in
  ignore (Result.get_ok (Sim.Pool.acquire pool));
  Alcotest.(check bool) "cold boot pays init" true (Hw.Cycles.now clock - t1 > 100_000);
  Alcotest.(check int) "hits" 2 (Sim.Pool.warm_hits pool);
  Alcotest.(check int) "colds" 1 (Sim.Pool.cold_boots pool);
  (* Refill. *)
  (match Sim.Pool.prewarm pool 3 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "refilled" 3 (Sim.Pool.ready pool)

(* ------------------------------------------------------------------ *)
(* Isolation backends + multi-tenant density                           *)
(* ------------------------------------------------------------------ *)

(* Denial records of one category on the stack's audit chain. *)
let denies st ~category =
  List.length
    (List.filter
       (fun r ->
         r.Obs.Audit.category = category && r.Obs.Audit.verdict = Obs.Audit.Deny)
       (Obs.Audit.records (Option.get (Obs.Emitter.audit (M.obs st)))))

let make_tenant st ~name ~pages =
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox (manager st) ~name ~confined_budget:(pages * 4096))
  in
  let base =
    Result.get_ok (Erebor.Sandbox.declare_confined (manager st) sb ~len:(pages * 4096))
  in
  (sb, base)

let tenant_pfn st sb addr =
  Option.get
    (Kernel.resolve_pfn (M.kern st) (Erebor.Sandbox.main_task sb) ~addr)

(* A compromised-kernel context: a Normal task with one mapped anon page,
   whose leaf-PTE slot the attacker then abuses with raw privop stores. *)
let attacker_slot st =
  let atk = Kernel.create_task (M.kern st) ~name:"atk" ~kind:Kernel.Task.Normal in
  let addr =
    Kernel.mmap (M.kern st) atk ~len:4096 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon
  in
  Result.get_ok (Kernel.handle_page_fault (M.kern st) atk ~addr ~kind:Hw.Fault.Write);
  let leaf =
    Option.get
      (Hw.Page_table.leaf_addr (M.mem st) ~root_pfn:atk.Kernel.Task.root_pfn addr)
  in
  (atk, addr, leaf)

let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: monitor accepted the mapping" name
  | exception Erebor.Monitor.Policy_violation _ -> ()

(* Tenant A (and the outside kernel) must not be able to map tenant B's
   confined frames, on either backend, and every refusal must land on the
   audit chain. *)
let test_cross_tenant_map_denied backend () =
  let st = machine ~backend () in
  let a, base_a = make_tenant st ~name:"tenant-a" ~pages:4 in
  let b, base_b = make_tenant st ~name:"tenant-b" ~pages:4 in
  let pfn_b = tenant_pfn st b base_b in
  let write_pte = (M.kern st).Kernel.privops.Kernel.Privops.write_pte in
  let before = denies st ~category:"mmu" in
  (* From outside any sandbox. *)
  let _atk, _addr, leaf = attacker_slot st in
  expect_violation "outside map of confined frame" (fun () ->
      write_pte ~pte_addr:leaf
        (Hw.Pte.make ~pfn:pfn_b { Hw.Pte.default_flags with user = true }));
  (* From sibling tenant A's own tree: repoint A's confined leaf at B. *)
  let leaf_a =
    Option.get
      (Hw.Page_table.leaf_addr (M.mem st)
         ~root_pfn:(Erebor.Sandbox.main_task a).Kernel.Task.root_pfn base_a)
  in
  expect_violation "sibling map of confined frame" (fun () ->
      write_pte ~pte_addr:leaf_a
        (Hw.Pte.make ~pfn:pfn_b { Hw.Pte.default_flags with user = true }));
  Alcotest.(check int) "both denials audited" (before + 2)
    (denies st ~category:"mmu");
  Alcotest.(check bool) "guard counted them" true
    (Erebor.Mmu_guard.denied_count (Erebor.Monitor.guard (monitor st)) >= 2);
  (* B is unharmed: still owner-classified and readable. *)
  Alcotest.(check bool) "b still owns its frame" true
    (Erebor.Mmu_guard.class_of (Erebor.Monitor.guard (monitor st)) pfn_b
    = Erebor.Mmu_guard.Confined { owner = Erebor.Sandbox.id b })

(* TME-MK: an untrusted PTE that names a nonzero key id the monitor did not
   stamp is a forgery and must be rejected before class dispatch. *)
let test_keyid_forgery_denied () =
  let st = machine ~backend:Erebor.Isolation.Tme_mk () in
  let kern = M.kern st in
  let mem = M.mem st in
  let b, base_b = make_tenant st ~name:"tenant-b" ~pages:4 in
  (* The legitimate install path DID stamp B's leaf with B's key id... *)
  let leaf_b =
    Option.get
      (Hw.Page_table.leaf_addr mem
         ~root_pfn:(Erebor.Sandbox.main_task b).Kernel.Task.root_pfn base_b)
  in
  Alcotest.(check int) "confined leaf stamped with owner key"
    (Erebor.Isolation.keyid_of_owner (Erebor.Sandbox.id b))
    (Hw.Pte.keyid (Hw.Phys_mem.read_u64 mem leaf_b));
  (* ...but an untrusted store may not present a key id of its own, even on
     the attacker's very own frame. *)
  let atk, addr, leaf = attacker_slot st in
  let own_pfn = Option.get (Kernel.resolve_pfn kern atk ~addr) in
  let before = denies st ~category:"mmu" in
  expect_violation "forged key id" (fun () ->
      kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf
        (Hw.Pte.set_keyid
           (Hw.Pte.make ~pfn:own_pfn { Hw.Pte.default_flags with user = true })
           (Erebor.Isolation.keyid_of_owner (Erebor.Sandbox.id b))));
  Alcotest.(check int) "forgery audited" (before + 1) (denies st ~category:"mmu")

(* TME-MK fill-time checks at the hardware layer: wrong key id and inactive
   key both fault with pkey_violation set and audit as "tme" denials; the
   matching active key fills and is charged as a keyed fill. *)
let test_tme_fill_faults () =
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let clock = Hw.Cycles.clock () in
  let obs = Obs.Emitter.create () in
  let audit = Obs.Audit.create ~key:M.hw_key in
  Obs.Emitter.set_audit obs (Some audit);
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 ~obs () in
  let tme = Hw.Tme.create ~frames:4096 in
  cpu.Hw.Cpu.tme <- Some tme;
  let next = ref 1 in
  let alloc_ptp () =
    let p = !next in
    incr next;
    p
  in
  let write_pte ~pte_addr pte = Hw.Phys_mem.write_u64 mem pte_addr pte in
  let root = alloc_ptp () in
  Hw.Cpu.write_cr3 cpu ~root_pfn:root;
  let data_pfn = 128 and vaddr = 0x5000_0000 in
  Hw.Page_table.map mem ~write_pte ~alloc_ptp ~root_pfn:root ~vaddr
    (Hw.Pte.make ~pfn:data_pfn Hw.Pte.default_flags);
  Hw.Tme.tag tme ~pfn:data_pfn 3;
  (* Key-0 PTE over a key-3 frame: Wrong_key. *)
  (match Hw.Cpu.read_u8 cpu vaddr with
  | _ -> Alcotest.fail "wrong-key fill accepted"
  | exception Hw.Fault.Fault (Hw.Fault.Page_fault pf) ->
      Alcotest.(check bool) "wrong key is a pkey fault" true pf.Hw.Fault.pkey_violation);
  (* Correct key id but the tenant context is not active: Inactive_key. *)
  let leaf = Option.get (Hw.Page_table.leaf_addr mem ~root_pfn:root vaddr) in
  Hw.Phys_mem.write_u64 mem leaf
    (Hw.Pte.set_keyid (Hw.Pte.make ~pfn:data_pfn Hw.Pte.default_flags) 3);
  (match Hw.Cpu.read_u8 cpu vaddr with
  | _ -> Alcotest.fail "inactive-key fill accepted"
  | exception Hw.Fault.Fault (Hw.Fault.Page_fault pf) ->
      Alcotest.(check bool) "inactive key is a pkey fault" true pf.Hw.Fault.pkey_violation);
  (* Activate the key: the fill succeeds and is charged. *)
  Hw.Tme.set_active tme 3;
  let t0 = Hw.Cycles.now clock in
  ignore (Hw.Cpu.read_u8 cpu vaddr);
  Alcotest.(check bool) "keyed fill charges the key load" true
    (Hw.Cycles.now clock - t0 >= Hw.Cycles.Cost.tme_key_load);
  Alcotest.(check int) "two integrity faults" 2 (Hw.Tme.faults tme);
  Alcotest.(check bool) "keyed fills counted" true (Hw.Tme.keyed_fills tme >= 1);
  Alcotest.(check int) "both faults audited as tme denials" 2
    (List.length
       (List.filter
          (fun r ->
            r.Obs.Audit.category = "tme" && r.Obs.Audit.verdict = Obs.Audit.Deny)
          (Obs.Audit.records audit)))

(* Sealed common frames may be shared read-only across the CVM but never
   mapped writable from outside a sandbox. *)
let test_sealed_common_write_denied backend () =
  let st = machine ~backend () in
  let mgr = manager st in
  let kern = M.kern st in
  let sb, _base = make_tenant st ~name:"tenant" ~pages:4 in
  let caddr =
    Result.get_ok
      (Erebor.Sandbox.attach_common mgr sb ~name:"corpus" ~size:(4 * 4096))
  in
  ignore
    (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "q")));
  (* Demand-fault the first common page in so it has a backing frame. *)
  (match Kernel.resolve_pfn kern (Erebor.Sandbox.main_task sb) ~addr:caddr with
  | Some _ -> ()
  | None ->
      Result.get_ok
        (Erebor.Sandbox.page_fault mgr sb ~addr:caddr ~kind:Hw.Fault.Read));
  let cpfn = tenant_pfn st sb caddr in
  let _atk, _addr, leaf = attacker_slot st in
  let before = denies st ~category:"mmu" in
  expect_violation "writable map of sealed common frame" (fun () ->
      kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf
        (Hw.Pte.make ~pfn:cpfn { Hw.Pte.default_flags with user = true }));
  Alcotest.(check int) "denial audited" (before + 1) (denies st ~category:"mmu");
  (* The read-only alias — the legitimate sharing mode — is still accepted. *)
  kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf
    (Hw.Pte.make ~pfn:cpfn
       { Hw.Pte.default_flags with user = true; writable = false })

(* Terminating one tenant scrubs exactly that tenant: siblings keep their
   frames, their translations, their counters and their key tags. *)
let test_teardown_leaves_siblings backend () =
  let st = machine ~backend () in
  let mgr = manager st in
  let mem = M.mem st in
  let guard = Erebor.Monitor.guard (monitor st) in
  let a, base_a = make_tenant st ~name:"a" ~pages:4 in
  let b, base_b = make_tenant st ~name:"b" ~pages:4 in
  let _c, _base_c = make_tenant st ~name:"c" ~pages:4 in
  let secret = Bytes.of_string "SIBLING-SECRET" in
  Erebor.Sandbox.write_sandbox_bytes mgr b ~addr:base_b secret;
  let pfn_a = tenant_pfn st a base_a and pfn_b = tenant_pfn st b base_b in
  Hw.Phys_mem.write_raw_u64 mem (Hw.Phys_mem.addr_of_pfn pfn_a) 0xDEADL;
  (if backend = Erebor.Isolation.Tme_mk then
     let tme = Option.get (M.cpu st).Hw.Cpu.tme in
     Alcotest.(check int) "b's frame tagged with b's key"
       (Erebor.Isolation.keyid_of_owner (Erebor.Sandbox.id b))
       (Hw.Tme.tag_of tme ~pfn:pfn_b));
  let stats_b = Erebor.Sandbox.exit_stats b in
  let a_root = (Erebor.Sandbox.main_task a).Kernel.Task.root_pfn in
  Erebor.Sandbox.terminate mgr a;
  (* a: declassified, zeroed, translation gone, key tag cleared. *)
  Alcotest.(check bool) "a's frame declassified" true
    (Erebor.Mmu_guard.class_of guard pfn_a = Erebor.Mmu_guard.Free);
  Alcotest.(check int64) "a's frame scrubbed" 0L
    (Hw.Phys_mem.read_raw_u64 mem (Hw.Phys_mem.addr_of_pfn pfn_a));
  Alcotest.(check bool) "no stale translation for a" true
    (Hw.Page_table.walk mem ~root_pfn:a_root base_a = None);
  (if backend = Erebor.Isolation.Tme_mk then
     let tme = Option.get (M.cpu st).Hw.Cpu.tme in
     Alcotest.(check int) "a's key tag cleared" 0 (Hw.Tme.tag_of tme ~pfn:pfn_a));
  (* b: untouched in every observable way. *)
  Alcotest.(check bool) "b still owns its frame" true
    (Erebor.Mmu_guard.class_of guard pfn_b
    = Erebor.Mmu_guard.Confined { owner = Erebor.Sandbox.id b });
  Alcotest.(check int) "b's translation intact" pfn_b (tenant_pfn st b base_b);
  Alcotest.(check bytes) "b's data intact" secret
    (Erebor.Sandbox.read_sandbox_bytes mgr b ~addr:base_b
       ~len:(Bytes.length secret));
  Alcotest.(check bool) "b's exit stats untouched" true
    (Erebor.Sandbox.exit_stats b = stats_b);
  (if backend = Erebor.Isolation.Tme_mk then
     let tme = Option.get (M.cpu st).Hw.Cpu.tme in
     Alcotest.(check int) "b's key tag intact"
       (Erebor.Isolation.keyid_of_owner (Erebor.Sandbox.id b))
       (Hw.Tme.tag_of tme ~pfn:pfn_b));
  (* b still serves: a user-mode access through the MMU (refilled after the
     scrub's TLB flushes) reads the right bytes. *)
  (M.kern st).Kernel.privops.Kernel.Privops.write_cr3
    ~root_pfn:(Erebor.Sandbox.main_task b).Kernel.Task.root_pfn;
  (M.cpu st).Hw.Cpu.mode <- Hw.Cpu.User;
  let byte = Hw.Cpu.read_u8 (M.cpu st) base_b in
  (M.cpu st).Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  Alcotest.(check int) "b serves after sibling teardown" (Char.code 'S') byte;
  (* Per-sandbox accounting still reports every tenant. *)
  Alcotest.(check int) "exit_stats_all rows" 3
    (List.length (Erebor.Sandbox.exit_stats_all mgr))

(* The EMC gate's fast path must stay allocation-free under backend
   dispatch — the first-class-module indirection may not cost a box per
   call on either backend. *)
let test_gate_call_no_alloc backend () =
  let st = machine ~backend () in
  let gate = Erebor.Monitor.gate (monitor st) in
  ignore (Erebor.Gate.call gate (fun () -> 0));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Erebor.Gate.call gate (fun () -> 0))
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool) "gate dispatch allocation-free" true (allocated < 256.0)

let () =
  Alcotest.run "extensions"
    [
      ( "batched mmu (9.1)",
        [
          Alcotest.test_case "cheaper, same result" `Quick test_batching_cheaper_same_result;
          Alcotest.test_case "policy in batches" `Quick test_batch_policy_still_enforced;
        ] );
      ( "mitigations (11)",
        [
          Alcotest.test_case "rate limit" `Quick test_mitigations_rate_limit;
          Alcotest.test_case "quantized output" `Quick test_mitigations_quantized_output;
          Alcotest.test_case "flush cost" `Quick test_mitigations_flush_cost;
          Alcotest.test_case "wired into sandbox" `Quick test_mitigations_wired_into_sandbox;
        ] );
      ( "huge pages (7)",
        [
          Alcotest.test_case "map/translate" `Quick test_huge_map_translate;
          Alcotest.test_case "forced splitting" `Quick test_forced_splitting;
          Alcotest.test_case "untrusted huge policy" `Quick test_untrusted_huge_policy;
        ] );
      ( "dynamic code (7)",
        [
          Alcotest.test_case "module loading" `Quick test_module_loading;
          Alcotest.test_case "text_poke" `Quick test_text_poke;
          Alcotest.test_case "native unchecked" `Quick test_native_accepts_dynamic_code;
        ] );
      ( "sev write-protect backend (10)",
        [
          Alcotest.test_case "boots without PKS" `Quick test_wp_backend_boots;
          Alcotest.test_case "WP protects PTPs" `Quick test_wp_protects_ptps;
          Alcotest.test_case "interrupt gate" `Quick test_wp_interrupt_gate;
          Alcotest.test_case "sandbox protection holds" `Quick test_wp_sandbox_protection_holds;
        ] );
      ( "warm pool (9.2)",
        [ Alcotest.test_case "warm vs cold" `Quick test_pool_warm_vs_cold ] );
      ( "isolation backends + tenancy",
        [
          Alcotest.test_case "cross-tenant map denied (pks)" `Quick
            (test_cross_tenant_map_denied Erebor.Isolation.Pks);
          Alcotest.test_case "cross-tenant map denied (tmemk)" `Quick
            (test_cross_tenant_map_denied Erebor.Isolation.Tme_mk);
          Alcotest.test_case "key-id forgery denied" `Quick test_keyid_forgery_denied;
          Alcotest.test_case "tme fill faults" `Quick test_tme_fill_faults;
          Alcotest.test_case "sealed common write denied (pks)" `Quick
            (test_sealed_common_write_denied Erebor.Isolation.Pks);
          Alcotest.test_case "sealed common write denied (tmemk)" `Quick
            (test_sealed_common_write_denied Erebor.Isolation.Tme_mk);
          Alcotest.test_case "teardown spares siblings (pks)" `Quick
            (test_teardown_leaves_siblings Erebor.Isolation.Pks);
          Alcotest.test_case "teardown spares siblings (tmemk)" `Quick
            (test_teardown_leaves_siblings Erebor.Isolation.Tme_mk);
          Alcotest.test_case "gate dispatch no-alloc (pks)" `Quick
            (test_gate_call_no_alloc Erebor.Isolation.Pks);
          Alcotest.test_case "gate dispatch no-alloc (tmemk)" `Quick
            (test_gate_call_no_alloc Erebor.Isolation.Tme_mk);
        ] );
    ]
