(* Security-claim tests (C1–C8, §8 of the paper) plus unit tests for the
   Erebor monitor, MMU guard, gates, sandboxes and the secure channel. *)

let hw_key = Crypto.Sha256.digest_string "fused hardware key"
let firmware = Bytes.of_string "OVMF-firmware-blob"

let benign_kernel_image =
  {
    Hw.Image.entry = 0x1000;
    sections =
      [
        { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true; writable = false;
          data =
            Hw.Isa.assemble
              [ Hw.Isa.Endbr; Hw.Isa.Mov_imm (Hw.Isa.R0, 1); Hw.Isa.Call 2;
                Hw.Isa.Syscall; Hw.Isa.Cpuid; Hw.Isa.Clac; Hw.Isa.Ret ] };
        { Hw.Image.name = ".data"; vaddr = 0x8000; executable = false; writable = true;
          data = Bytes.make 64 'd' };
      ];
  }

type stack = {
  mem : Hw.Phys_mem.t;
  cpu : Hw.Cpu.t;
  td : Tdx.Td_module.t;
  host : Vmm.Host.t;
  monitor : Erebor.Monitor.t;
  kern : Kernel.t;
}

(* Every monitor a security-claim case installs, so [claim] can check at
   the end of the case that no step of it changed the gate code. *)
let installed = ref []

let install_monitor ?backend ~cpu ~mem ~td () =
  let monitor =
    Erebor.Monitor.install ?backend ~cpu ~mem ~td ~firmware ~monitor_frames:32
      ~device_shared_frames:32 ()
  in
  installed := monitor :: !installed;
  monitor

let assert_gate_intact monitor =
  Alcotest.(check bool) "gate code equals the measured listing" true
    (Erebor.Monitor.gate_intact monitor)

(* A C1–C8 case: whatever the case does as the adversary, the gate bytes in
   every monitor it installed still match the measurement afterwards. *)
let claim name f =
  Alcotest.test_case name `Quick (fun () ->
      installed := [];
      f ();
      List.iter assert_gate_intact !installed;
      installed := [])

let make_stack ?backend ?(frames = 16384) ?(cma_frames = 4096) () =
  let mem = Hw.Phys_mem.create ~frames in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:200_000 () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let monitor = install_monitor ?backend ~cpu ~mem ~td () in
  match
    Erebor.Monitor.boot_kernel monitor ~kernel_image:benign_kernel_image
      ~reserved_frames:128 ~cma_frames
  with
  | Ok kern -> { mem; cpu; td; host; monitor; kern }
  | Error e -> failwith e

let make_manager st = Erebor.Sandbox.create_manager ~monitor:st.monitor ~kern:st.kern

let expect_violation name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Policy_violation")
  | exception Erebor.Monitor.Policy_violation _ -> ()

let expect_fault name f check =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected a fault")
  | exception Hw.Fault.Fault flt ->
      if not (check flt) then
        Alcotest.failf "%s: unexpected fault %s" name (Hw.Fault.to_string flt)

let is_pkey_pf = function
  | Hw.Fault.Page_fault { pkey_violation; _ } -> pkey_violation
  | _ -> false

let is_cp = function Hw.Fault.Control_protection _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

let test_policy_pkrs () =
  let pkrs = Erebor.Policy.normal_mode_pkrs in
  Alcotest.(check bool) "monitor key blocked" false
    (Hw.Pks.permits ~pkrs ~key:Erebor.Policy.key_monitor ~write:false);
  Alcotest.(check bool) "ptp readable" true
    (Hw.Pks.permits ~pkrs ~key:Erebor.Policy.key_ptp ~write:false);
  Alcotest.(check bool) "ptp not writable" false
    (Hw.Pks.permits ~pkrs ~key:Erebor.Policy.key_ptp ~write:true);
  Alcotest.(check bool) "text not writable" false
    (Hw.Pks.permits ~pkrs ~key:Erebor.Policy.key_kernel_text ~write:true);
  Alcotest.(check bool) "default open" true
    (Hw.Pks.permits ~pkrs ~key:Erebor.Policy.key_default ~write:true);
  Alcotest.(check bool) "monitor mode open" true
    (Hw.Pks.permits ~pkrs:Erebor.Policy.monitor_mode_pkrs ~key:Erebor.Policy.key_monitor
       ~write:true)

let test_policy_inventory () =
  Alcotest.(check int) "five sensitive classes (Table 2)" 5
    (List.length Erebor.Policy.sensitive_instructions);
  Alcotest.(check bool) "tdcall classified" true
    (Erebor.Policy.class_of_isa Hw.Isa.Tdcall = Some Erebor.Policy.Ghci);
  Alcotest.(check bool) "nop benign" true (Erebor.Policy.class_of_isa Hw.Isa.Nop = None)

(* ------------------------------------------------------------------ *)
(* C1: verified boot                                                   *)
(* ------------------------------------------------------------------ *)

let test_boot_accepts_benign () =
  let st = make_stack () in
  Alcotest.(check bool) "kernel booted" true (Erebor.Monitor.kernel st.monitor <> None);
  Alcotest.(check bool) "pks enabled" true (Hw.Cr.pks st.cpu.Hw.Cpu.cr);
  Alcotest.(check bool) "cet enabled" true (Hw.Cr.cet st.cpu.Hw.Cpu.cr);
  Alcotest.(check int64) "normal pkrs loaded" Erebor.Policy.normal_mode_pkrs
    (Hw.Msr.read st.cpu.Hw.Cpu.msr Hw.Msr.ia32_pkrs)

let test_boot_rejects_sensitive () =
  (* Plant each sensitive instruction in .text; every variant must be
     refused (C1). *)
  List.iter
    (fun instr ->
      let image =
        {
          benign_kernel_image with
          Hw.Image.sections =
            [
              { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true;
                writable = false;
                data = Hw.Isa.assemble [ Hw.Isa.Endbr; instr; Hw.Isa.Ret ] };
            ];
        }
      in
      let mem = Hw.Phys_mem.create ~frames:16384 in
      let clock = Hw.Cycles.clock () in
      let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:200_000 () in
      let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
      let monitor = install_monitor ~cpu ~mem ~td () in
      match
        Erebor.Monitor.boot_kernel monitor ~kernel_image:image ~reserved_frames:128
          ~cma_frames:1024
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "booted a kernel containing %a" Hw.Isa.pp_instr instr)
    [ Hw.Isa.Mov_cr (3, Hw.Isa.R0); Hw.Isa.Wrmsr; Hw.Isa.Stac; Hw.Isa.Lidt; Hw.Isa.Tdcall ]

let test_boot_data_section_not_scanned () =
  (* Non-executable sections may contain arbitrary bytes. *)
  let image =
    {
      benign_kernel_image with
      Hw.Image.sections =
        benign_kernel_image.Hw.Image.sections
        @ [
            { Hw.Image.name = ".rodata"; vaddr = 0x20000; executable = false;
              writable = false; data = Bytes.make 16 '\xc5' (* tdcall bytes *) };
          ];
    }
  in
  Alcotest.(check bool) "data bytes tolerated" true
    (Erebor.Scan.verify_image image = Ok ())

let test_boot_measurement_deterministic () =
  let a = make_stack () and b = make_stack () in
  let ra = Erebor.Monitor.tdreport a.monitor ~report_data:Bytes.empty in
  let rb = Erebor.Monitor.tdreport b.monitor ~report_data:Bytes.empty in
  Alcotest.(check bytes) "same boot, same MRTD" ra.Tdx.Attest.mrtd rb.Tdx.Attest.mrtd

let test_dynamic_code_verification () =
  (* text_poke / module loading path: the monitor scans dynamic code too. *)
  (match Erebor.Scan.verify_bytes ~section:"ebpf" (Hw.Isa.assemble [ Hw.Isa.Add (Hw.Isa.R0, Hw.Isa.R1) ]) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "benign dynamic code rejected");
  match Erebor.Scan.verify_bytes ~section:"ebpf" (Hw.Isa.assemble [ Hw.Isa.Wrmsr ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sensitive dynamic code accepted"

(* ------------------------------------------------------------------ *)
(* Gates (C4)                                                          *)
(* ------------------------------------------------------------------ *)

(* IBT guards the gate under every isolation backend: a jump past the
   entry's endbr64 raises #CP, the entry itself runs. *)
let test_gate_rogue_entry backend () =
  let st = make_stack ~backend () in
  let gate = Erebor.Monitor.gate st.monitor in
  expect_fault "mid-gate jump" (fun () ->
      Erebor.Gate.enter gate ~target:(Erebor.Gate.entry_point gate + 4) (fun () -> ()))
    is_cp;
  (* The legitimate entry works. *)
  Alcotest.(check int) "legit entry" 42
    (Erebor.Gate.enter gate ~target:(Erebor.Gate.entry_point gate) (fun () -> 42))

let test_gate_pkrs_switching () =
  let st = make_stack () in
  let gate = Erebor.Monitor.gate st.monitor in
  let msr = st.cpu.Hw.Cpu.msr in
  let inside = ref (-1L) in
  Erebor.Gate.call gate (fun () -> inside := Hw.Msr.read msr Hw.Msr.ia32_pkrs);
  Alcotest.(check int64) "granted inside" Erebor.Policy.monitor_mode_pkrs !inside;
  Alcotest.(check int64) "revoked outside" Erebor.Policy.normal_mode_pkrs
    (Hw.Msr.read msr Hw.Msr.ia32_pkrs)

let test_gate_pkrs_restored_on_exception () =
  let st = make_stack () in
  let gate = Erebor.Monitor.gate st.monitor in
  (try Erebor.Gate.call gate (fun () -> failwith "service blew up")
   with Failure _ -> ());
  Alcotest.(check int64) "revoked after exception" Erebor.Policy.normal_mode_pkrs
    (Hw.Msr.read st.cpu.Hw.Cpu.msr Hw.Msr.ia32_pkrs)

(* An IPI lands mid-EMC: the #INT gate must revoke the backend's grant
   around the OS handler and restore it afterwards — also when the handler
   raises, in which case the secure stack is popped and the exception still
   reaches the interrupted service. *)
let test_gate_interrupt_revokes backend () =
  let st = make_stack ~backend () in
  let gate = Erebor.Monitor.gate st.monitor in
  let iso = Erebor.Gate.backend gate in
  let grant () = Erebor.Isolation.read_grant iso in
  let granted = Erebor.Isolation.granted_value iso
  and revoked = Erebor.Isolation.revoked_value iso in
  let msr = st.cpu.Hw.Cpu.msr in
  let pkrs () = Hw.Msr.read msr Hw.Msr.ia32_pkrs in
  let during_irq = ref (-1) and after_irq = ref (-1) in
  let pkrs_during = ref (-1L) and pkrs_after = ref (-1L) in
  Erebor.Gate.call gate (fun () ->
      Erebor.Gate.interrupt_during_emc gate (fun () ->
          during_irq := grant ();
          pkrs_during := pkrs ();
          Alcotest.(check int) "grant saved on the secure stack" 1
            (Erebor.Gate.secure_stack_depth gate));
      after_irq := grant ();
      pkrs_after := pkrs ());
  Alcotest.(check int) "revoked during irq" revoked !during_irq;
  Alcotest.(check int) "restored after irq" granted !after_irq;
  if backend = Erebor.Isolation.Pks then begin
    Alcotest.(check int64) "PKRS revoked during irq"
      Erebor.Policy.normal_mode_pkrs !pkrs_during;
    Alcotest.(check int64) "PKRS restored after irq"
      Erebor.Policy.monitor_mode_pkrs !pkrs_after
  end;
  Alcotest.(check int) "secure stack empty" 0
    (Erebor.Gate.secure_stack_depth gate);
  let during_raise = ref (-1) and after_raise = ref (-1) in
  let reraised = ref false and depth_after = ref (-1) in
  Erebor.Gate.call gate (fun () ->
      (try
         Erebor.Gate.interrupt_during_emc gate (fun () ->
             during_raise := grant ();
             raise Exit)
       with Exit -> reraised := true);
      after_raise := grant ();
      depth_after := Erebor.Gate.secure_stack_depth gate);
  Alcotest.(check bool) "handler's exception re-raised" true !reraised;
  Alcotest.(check int) "revoked while the handler raised" revoked !during_raise;
  Alcotest.(check int) "restored after the handler raised" granted !after_raise;
  Alcotest.(check int) "secure stack emptied after the raise" 0 !depth_after;
  Alcotest.(check int) "caller's grant back after the EMC" revoked (grant ());
  Alcotest.(check int) "interrupts counted" 2
    (Erebor.Gate.interrupted_count gate)

let test_gate_emc_cost () =
  let st = make_stack () in
  let gate = Erebor.Monitor.gate st.monitor in
  let t0 = Hw.Cycles.now st.kern.Kernel.clock in
  Erebor.Gate.call gate (fun () -> ());
  Alcotest.(check int) "empty EMC costs 1224" Hw.Cycles.Cost.emc_roundtrip
    (Hw.Cycles.now st.kern.Kernel.clock - t0)

(* Warm round trips through each gate entry allocate nothing under every
   backend: the service bodies are static and the operands cross as
   arguments, so any word counted here is the gate's own. *)
let test_gate_round_trips_zero_alloc backend () =
  let st = make_stack ~backend () in
  let gate = Erebor.Monitor.gate st.monitor in
  let trips () =
    for i = 1 to 10_000 do
      Erebor.Gate.call gate ignore;
      ignore (Erebor.Gate.call1 gate succ i);
      ignore (Erebor.Gate.call2 gate ( + ) i 1)
    done
  in
  trips ();
  let emcs = Erebor.Gate.emc_count gate in
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let w0 = Gc.minor_words () in
  trips ();
  let words = Gc.minor_words () -. w0 -. probe in
  Alcotest.(check (float 0.0)) "zero minor words" 0.0 words;
  Alcotest.(check int) "30k EMCs" (emcs + 30_000) (Erebor.Gate.emc_count gate)

(* ------------------------------------------------------------------ *)
(* Gate integrity: the measured listing is the code in monitor memory   *)
(* ------------------------------------------------------------------ *)

let gate_code_in_memory st =
  let gate = Erebor.Monitor.gate st.monitor in
  Hw.Phys_mem.read_bytes st.mem 0x1000 (Bytes.length (Erebor.Gate.code_bytes gate))

let test_gate_bytes_installed backend () =
  let st = make_stack ~backend () in
  let gate = Erebor.Monitor.gate st.monitor in
  Alcotest.(check int) "entry point is the direct-map view of 0x1000"
    (Kernel.Layout.direct_map 0x1000) (Erebor.Gate.entry_point gate);
  Alcotest.(check bytes) "bytes at 0x1000 are the measured listing"
    (Erebor.Gate.code_bytes gate) (gate_code_in_memory st);
  assert_gate_intact st.monitor;
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let clock = st.kern.Kernel.clock in
  let t0 = Hw.Cycles.now clock in
  let w0 = Gc.minor_words () in
  let intact = Erebor.Monitor.gate_intact st.monitor in
  let words = Gc.minor_words () -. w0 -. probe in
  Alcotest.(check bool) "intact" true intact;
  Alcotest.(check (float 0.0)) "check allocates nothing" 0.0 words;
  Alcotest.(check int) "check charges no cycles" t0 (Hw.Cycles.now clock)

(* The kernel's two ways at the gate frame: a PTE that maps pfn 1
   user-writable, and a store through the direct map. Both are refused and
   the bytes stay as measured. *)
let test_gate_frame_unwritable backend () =
  let st = make_stack ~backend () in
  let before = gate_code_in_memory st in
  expect_violation "map the gate frame user-writable" (fun () ->
      st.kern.Kernel.privops.Kernel.Privops.write_pte
        ~pte_addr:(Hw.Phys_mem.addr_of_pfn st.kern.Kernel.kernel_root + (8 * 100))
        (Hw.Pte.make ~pfn:1 { Hw.Pte.default_flags with user = true; writable = true }));
  Alcotest.(check bytes) "unchanged after the mapping attempt" before
    (gate_code_in_memory st);
  let entry = Erebor.Gate.entry_point (Erebor.Monitor.gate st.monitor) in
  expect_fault "store through the direct map" (fun () -> Hw.Cpu.write_u8 st.cpu entry 0xCC)
    (fun _ -> true);
  expect_fault "wide store through the direct map"
    (fun () -> Hw.Cpu.write_u64 st.cpu (entry + 8) 0L)
    (fun _ -> true);
  Alcotest.(check bytes) "unchanged after the stores" before (gate_code_in_memory st);
  assert_gate_intact st.monitor;
  ignore (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty)

(* Corruption that bypasses every check (a raw physical store, as a
   hardware fault or a monitor bug would make) is caught where it matters:
   no report is minted over a gate that differs from its measurement. *)
let test_corrupted_gate_not_attested () =
  let st = make_stack () in
  let audit = Obs.Audit.create ~key:hw_key in
  Obs.Emitter.set_audit st.cpu.Hw.Cpu.obs (Some audit);
  ignore (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty);
  Hw.Phys_mem.write_u8 st.mem (0x1000 + 5)
    (Hw.Phys_mem.read_u8 st.mem (0x1000 + 5) lxor 0x01);
  Alcotest.(check bool) "corruption seen" false (Erebor.Monitor.gate_intact st.monitor);
  let t0 = Hw.Cycles.now st.kern.Kernel.clock in
  let emcs = Erebor.Monitor.emc_total st.monitor in
  expect_violation "tdreport over a corrupted gate" (fun () ->
      Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty);
  Alcotest.(check int) "refused before the gate" emcs (Erebor.Monitor.emc_total st.monitor);
  Alcotest.(check int) "refusal charges no cycles" t0 (Hw.Cycles.now st.kern.Kernel.clock);
  let attest verdict =
    List.length
      (List.filter
         (fun r -> r.Obs.Audit.category = "attest" && r.Obs.Audit.verdict = verdict)
         (Obs.Audit.records audit))
  in
  Alcotest.(check int) "one report minted" 1 (attest Obs.Audit.Info);
  Alcotest.(check int) "refusal audited" 1 (attest Obs.Audit.Deny)

(* ------------------------------------------------------------------ *)
(* C2/C3/C4: MMU + CR/MSR protection                                    *)
(* ------------------------------------------------------------------ *)

let test_kernel_cannot_write_ptp () =
  let st = make_stack () in
  (* Map a PTP (the kernel master root) into the direct map; the guard
     retags it read-only with the PTP key. *)
  Kernel.ensure_direct_map st.kern ~pfn:st.kern.Kernel.kernel_root;
  let va = Kernel.Layout.direct_map (Hw.Phys_mem.addr_of_pfn st.kern.Kernel.kernel_root) in
  (* Reading page tables is fine... *)
  ignore (Hw.Cpu.read_u64 st.cpu va);
  (* ...but a direct store from normal mode trips PKS (C2). *)
  expect_fault "direct PTP write" (fun () -> Hw.Cpu.write_u64 st.cpu va 0xBADL) is_pkey_pf

let test_kernel_cannot_map_monitor_memory () =
  let st = make_stack () in
  expect_violation "mapping monitor memory" (fun () ->
      Kernel.ensure_direct_map st.kern ~pfn:1 (* monitor frame *))

let test_kernel_cannot_store_outside_ptp () =
  let st = make_stack () in
  expect_violation "stray pte store" (fun () ->
      st.kern.Kernel.privops.Kernel.Privops.write_pte
        ~pte_addr:(Hw.Phys_mem.addr_of_pfn 9000) (Hw.Pte.make ~pfn:5 Hw.Pte.default_flags))

let test_kernel_cannot_disable_protections () =
  let st = make_stack () in
  let ops = st.kern.Kernel.privops in
  expect_violation "clear smap" (fun () ->
      ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap false);
  expect_violation "clear smep" (fun () ->
      ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smep false);
  expect_violation "clear wp" (fun () ->
      ops.Kernel.Privops.set_cr_bit ~reg:`Cr0 Hw.Cr.cr0_wp false);
  expect_violation "clear pks" (fun () ->
      ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_pks false);
  expect_violation "write pkrs" (fun () ->
      ops.Kernel.Privops.write_msr Hw.Msr.ia32_pkrs 0L);
  expect_violation "write s_cet" (fun () ->
      ops.Kernel.Privops.write_msr Hw.Msr.ia32_s_cet 0L)

let test_kernel_lstar_interposed () =
  let st = make_stack () in
  st.kern.Kernel.privops.Kernel.Privops.write_msr Hw.Msr.ia32_lstar 0xdeadL;
  let actual = Hw.Msr.read st.cpu.Hw.Cpu.msr Hw.Msr.ia32_lstar in
  Alcotest.(check int64) "syscall entry points at the monitor"
    (Int64.of_int (Erebor.Gate.entry_point (Erebor.Monitor.gate st.monitor)))
    actual

let test_ghci_policy () =
  let st = make_stack () in
  let ops = st.kern.Kernel.privops in
  (* Attestation is monitor-exclusive (C5). *)
  expect_violation "kernel tdreport" (fun () ->
      ops.Kernel.Privops.tdcall (Tdx.Ghci.Tdreport { report_data = Bytes.empty }));
  (* Sharing outside the device region is refused. *)
  expect_violation "share sandbox memory" (fun () ->
      ops.Kernel.Privops.tdcall (Tdx.Ghci.Map_gpa { pfn = 5000; shared = true }));
  (* Sharing inside the device region is the legitimate virtio path. *)
  (match ops.Kernel.Privops.tdcall (Tdx.Ghci.Map_gpa { pfn = 40; shared = true }) with
  | Tdx.Td_module.Ok_unit -> ()
  | _ -> Alcotest.fail "legitimate share failed");
  Alcotest.(check bool) "sept updated" true (Tdx.Sept.is_shared (Tdx.Td_module.sept st.td) 40)

let test_erebor_privop_costs () =
  (* Table 4, Erebor column. *)
  let st = make_stack () in
  let ops = st.kern.Kernel.privops in
  let clock = st.kern.Kernel.clock in
  let measure f =
    let t0 = Hw.Cycles.now clock in
    f ();
    Hw.Cycles.now clock - t0
  in
  (* A leaf store into a real PTP: use the master root's direct-map slot. *)
  Alcotest.(check int) "MMU = 1345"
    1345
    (measure (fun () ->
         ops.Kernel.Privops.write_pte
           ~pte_addr:(Hw.Phys_mem.addr_of_pfn st.kern.Kernel.kernel_root + (8 * 100))
           Hw.Pte.empty));
  Alcotest.(check int) "CR = 1593" 1593
    (measure (fun () -> ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap true));
  Alcotest.(check int) "MSR = 1613" 1613
    (measure (fun () -> ops.Kernel.Privops.write_msr Hw.Msr.ia32_efer 7L));
  Alcotest.(check int) "IDT = 1369" 1369
    (measure (fun () -> ops.Kernel.Privops.lidt (Hw.Idt.create ())));
  Alcotest.(check int) "GHCI tdreport = 128081" 128081
    (measure (fun () -> ignore (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty)))

(* ------------------------------------------------------------------ *)
(* Sandboxes (C6, C7, C8)                                              *)
(* ------------------------------------------------------------------ *)

let make_sandbox ?(budget = 64 * 4096) ?(confined = 16 * 4096) st mgr name =
  ignore st;
  let sb = Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name ~confined_budget:budget) in
  let base = Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:confined) in
  (sb, base)

let test_sandbox_confined_basics () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "sb1" in
  Alcotest.(check int) "confined accounted" (16 * 4096) (Erebor.Sandbox.confined_bytes sb);
  (* Pinned: every page resolved, frames from CMA, classified confined. *)
  let task = Erebor.Sandbox.main_task sb in
  for i = 0 to 15 do
    let pfn = Option.get (Kernel.resolve_pfn st.kern task ~addr:(base + (i * 4096))) in
    Alcotest.(check bool) "from CMA" true (Kernel.Alloc.is_allocated st.kern.Kernel.cma pfn);
    (match Erebor.Mmu_guard.class_of (Erebor.Monitor.guard st.monitor) pfn with
    | Erebor.Mmu_guard.Confined { owner } -> Alcotest.(check int) "owner" 1 owner
    | _ -> Alcotest.fail "frame not classified confined")
  done;
  (* Budget enforced. *)
  match Erebor.Sandbox.declare_confined mgr sb ~len:(64 * 4096) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "budget exceeded silently"

let test_confined_single_mapping () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "victim" in
  let task = Erebor.Sandbox.main_task sb in
  let confined_pfn = Option.get (Kernel.resolve_pfn st.kern task ~addr:base) in
  (* A normal task (the attacker's process) maps a page... *)
  let attacker = Kernel.create_task st.kern ~name:"attacker" ~kind:Kernel.Task.Normal in
  let a_addr = Result.get_ok (Kernel.mmap st.kern attacker ~len:4096 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon) in
  (match Kernel.handle_page_fault st.kern attacker ~addr:a_addr ~kind:Hw.Fault.Write with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* ...then the malicious kernel tries to re-point its leaf PTE at the
     victim's confined frame (double-mapping attack, C6). *)
  let leaf_addr =
    Option.get
      (Hw.Page_table.leaf_addr st.mem ~root_pfn:attacker.Kernel.Task.root_pfn a_addr)
  in
  expect_violation "double map confined frame" (fun () ->
      st.kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf_addr
        (Hw.Pte.make ~pfn:confined_pfn { Hw.Pte.default_flags with user = true }));
  (* Even within the owning sandbox a second mapping is refused. *)
  let sb_leaf2 =
    (* leaf slot for an unmapped page in the sandbox's own space *)
    let addr2 = base + (15 * 4096) in
    Option.get (Hw.Page_table.leaf_addr st.mem ~root_pfn:task.Kernel.Task.root_pfn addr2)
  in
  expect_violation "second mapping in-sandbox" (fun () ->
      st.kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:sb_leaf2
        (Hw.Pte.make ~pfn:confined_pfn { Hw.Pte.default_flags with user = true }))

let test_mmu_guard_downgrade_flushes_tlb () =
  (* TLB staleness audit, Erebor side: an accepted Mmu_guard PTE store must
     flush the TLB, so a downgrade takes effect on the very next access —
     no window where a cached writable translation outlives the policy
     decision. *)
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "sb" in
  let task = Erebor.Sandbox.main_task sb in
  st.kern.Kernel.privops.Kernel.Privops.write_cr3 ~root_pfn:task.Kernel.Task.root_pfn;
  (* Warm the TLB with a successful user write to a confined page. *)
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u8 st.cpu base 7;
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  (* Kernel downgrades the leaf to read-only through the monitored table. *)
  let pte_addr =
    Option.get (Hw.Page_table.leaf_addr st.mem ~root_pfn:task.Kernel.Task.root_pfn base)
  in
  let ro = Hw.Pte.set_writable (Hw.Phys_mem.read_u64 st.mem pte_addr) false in
  st.kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr ro;
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match Hw.Cpu.read_u8 st.cpu base with
  | v -> Alcotest.(check int) "still readable" 7 v
  | exception Hw.Fault.Fault _ -> Alcotest.fail "downgraded page unreadable");
  expect_fault "write after guard downgrade" (fun () -> Hw.Cpu.write_u8 st.cpu base 8)
    (function Hw.Fault.Page_fault _ -> true | _ -> false);
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor

let test_sandbox_anon_mapping_refused () =
  (* All sandbox memory must be declared: an undeclared anonymous fault is
     refused by the MMU guard. *)
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  let task = Erebor.Sandbox.main_task sb in
  let addr = Result.get_ok (Kernel.mmap st.kern task ~len:4096 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon) in
  expect_violation "undeclared sandbox memory" (fun () ->
      ignore (Kernel.handle_page_fault st.kern task ~addr ~kind:Hw.Fault.Write))

let test_common_sharing () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb1, _ = make_sandbox st mgr "sb1" in
  let sb2, _ = make_sandbox st mgr "sb2" in
  let size = 8 * 4096 in
  let a1 = Result.get_ok (Erebor.Sandbox.attach_common mgr sb1 ~name:"model" ~size) in
  let a2 = Result.get_ok (Erebor.Sandbox.attach_common mgr sb2 ~name:"model" ~size) in
  (* sb1 initializes the shared instance (pre-seal writes allowed). *)
  let t1 = Erebor.Sandbox.main_task sb1 and t2 = Erebor.Sandbox.main_task sb2 in
  (match Kernel.populate st.kern t1 ~start:a1 ~len:size with Ok () -> () | Error e -> Alcotest.fail e);
  Erebor.Sandbox.write_sandbox_bytes mgr sb1 ~addr:a1 (Bytes.of_string "weights!");
  (match Kernel.populate st.kern t2 ~start:a2 ~len:size with Ok () -> () | Error e -> Alcotest.fail e);
  (* Same backing frames: sb2 reads sb1's initialization. *)
  Alcotest.(check string) "shared content" "weights!"
    (Bytes.to_string (Erebor.Sandbox.read_sandbox_bytes mgr sb2 ~addr:a2 ~len:8));
  Alcotest.(check int) "one set of frames" 8
    (Erebor.Sandbox.common_instance_frames mgr ~name:"model");
  let p1 = Option.get (Kernel.resolve_pfn st.kern t1 ~addr:a1) in
  let p2 = Option.get (Kernel.resolve_pfn st.kern t2 ~addr:a2) in
  Alcotest.(check int) "same pfn" p1 p2

let test_common_sealed_after_data () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _base = make_sandbox st mgr "sb" in
  let task = Erebor.Sandbox.main_task sb in
  let size = 4 * 4096 in
  let caddr = Result.get_ok (Erebor.Sandbox.attach_common mgr sb ~name:"db" ~size) in
  (match Kernel.populate st.kern task ~start:caddr ~len:size with Ok () -> () | Error e -> Alcotest.fail e);
  (* Writable before data... *)
  st.kern.Kernel.privops.Kernel.Privops.write_cr3 ~root_pfn:task.Kernel.Task.root_pfn;
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u8 st.cpu caddr 7;
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  (* ...read-only once client data is loaded (C7 / §6.1). *)
  (match Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match Hw.Cpu.read_u8 st.cpu caddr with
  | v -> Alcotest.(check int) "still readable" 7 v
  | exception Hw.Fault.Fault _ -> Alcotest.fail "sealed common unreadable");
  expect_fault "write sealed common" (fun () -> Hw.Cpu.write_u8 st.cpu caddr 8) (function
    | Hw.Fault.Page_fault _ -> true
    | _ -> false);
  st.cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor

let test_sandbox_kills_on_syscall_after_data () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "hush")));
  (match Erebor.Sandbox.handle_syscall mgr sb (Kernel.Syscall.Open { path = "/etc/passwd" }) with
  | Kernel.Syscall.Rerr _ -> ()
  | _ -> Alcotest.fail "post-data syscall allowed");
  Alcotest.(check bool) "killed" true (Erebor.Sandbox.kill_reason sb <> None);
  Alcotest.(check bool) "task dead" true
    ((Erebor.Sandbox.main_task sb).Kernel.Task.state = Kernel.Task.Dead);
  (* The attempted leak never reached the kernel fs. *)
  Alcotest.(check bool) "no file created" false (Kernel.Fs.exists st.kern.Kernel.fs "/etc/passwd")

let test_sandbox_channel_ioctl () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "input-42")));
  let fd = Erebor.Sandbox.channel_fd sb in
  (match
     Erebor.Sandbox.handle_syscall mgr sb
       (Kernel.Syscall.Ioctl { fd; request = 1; arg = Bytes.empty })
   with
  | Kernel.Syscall.Rbytes b ->
      Alcotest.(check string) "input delivered" "input-42" (Bytes.to_string b)
  | r -> Alcotest.failf "input ioctl: %a" Kernel.Syscall.pp_result r);
  (match
     Erebor.Sandbox.handle_syscall mgr sb
       (Kernel.Syscall.Ioctl { fd; request = 2; arg = Bytes.of_string "result!" })
   with
  | Kernel.Syscall.Rok -> ()
  | r -> Alcotest.failf "output ioctl: %a" Kernel.Syscall.pp_result r);
  Alcotest.(check string) "output collected" "result!"
    (Bytes.to_string (Erebor.Sandbox.take_output mgr sb));
  Alcotest.(check bool) "still alive" true (Erebor.Sandbox.kill_reason sb = None)

let test_sandbox_ve_kill () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  (match Erebor.Sandbox.handle_ve mgr sb ~reason:48 with
  | Kernel.Syscall.Rerr _ -> ()
  | _ -> Alcotest.fail "#VE exit allowed");
  Alcotest.(check bool) "killed" true (Erebor.Sandbox.kill_reason sb <> None)

let test_sandbox_cpuid_cached () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  let vm0 = List.length (Vmm.Host.vmcall_log st.host) in
  let v1 = Erebor.Sandbox.cpuid mgr sb ~leaf:1 in
  let v2 = Erebor.Sandbox.cpuid mgr sb ~leaf:1 in
  Alcotest.(check int64) "stable value" v1 v2;
  Alcotest.(check int) "only one host exit" (vm0 + 1) (List.length (Vmm.Host.vmcall_log st.host));
  Alcotest.(check int) "cache hit recorded" 1 (Erebor.Monitor.cpuid_cache_hits st.monitor);
  Alcotest.(check bool) "not killed by cpuid" true (Erebor.Sandbox.kill_reason sb = None)

let test_sandbox_interrupt_masks_state () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  st.cpu.Hw.Cpu.regs.(2) <- 0x5ec2e7L;
  let seen = ref (-1L) in
  Erebor.Sandbox.handle_interrupt mgr sb (fun () -> seen := st.cpu.Hw.Cpu.regs.(2));
  Alcotest.(check int64) "OS saw masked regs" 0L !seen;
  Alcotest.(check int64) "sandbox state restored" 0x5ec2e7L st.cpu.Hw.Cpu.regs.(2)

(* The #INT wrapper masks state through the manager's own save slot: with
   a prebuilt handler, wrapping a tick allocates nothing. *)
let test_sandbox_interrupt_zero_alloc () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  let masked = ref true in
  let handler () = if not (Int64.equal st.cpu.Hw.Cpu.regs.(2) 0L) then masked := false in
  st.cpu.Hw.Cpu.regs.(2) <- 0x5ec2e7L;
  Erebor.Sandbox.handle_interrupt mgr sb handler;
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Erebor.Sandbox.handle_interrupt mgr sb handler
  done;
  let words = Gc.minor_words () -. w0 -. probe in
  Alcotest.(check (float 0.0)) "zero minor words" 0.0 words;
  Alcotest.(check bool) "OS always saw masked regs" true !masked;
  Alcotest.(check int64) "sandbox state restored" 0x5ec2e7L st.cpu.Hw.Cpu.regs.(2)

let test_sandbox_uintr_disabled () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, _ = make_sandbox st mgr "sb" in
  (* Give the sandbox a valid target table, as if it prepared an AV3 leak. *)
  Hw.Msr.write st.cpu.Hw.Cpu.msr Hw.Msr.ia32_uintr_tt Hw.Msr.uintr_tt_valid_bit;
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "x")));
  match Hw.Uintr.senduipi ~msr:st.cpu.Hw.Cpu.msr ~slot:1 with
  | Hw.Uintr.Faulted (Hw.Fault.General_protection _) -> ()
  | _ -> Alcotest.fail "senduipi after data load succeeded"

let test_usercopy_veto_on_sealed_sandbox () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret")));
  (* Kernel runs in the sandbox's address space (e.g. at an interrupt) and
     tries a user copy to exfiltrate confined memory (AV1). *)
  st.kern.Kernel.privops.Kernel.Privops.write_cr3
    ~root_pfn:(Erebor.Sandbox.main_task sb).Kernel.Task.root_pfn;
  expect_violation "usercopy from sealed sandbox" (fun () ->
      ignore (st.kern.Kernel.privops.Kernel.Privops.copy_from_user ~user_addr:base ~len:6))

let test_kernel_smap_blocks_sandbox_read () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "sb" in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret")));
  st.kern.Kernel.privops.Kernel.Privops.write_cr3
    ~root_pfn:(Erebor.Sandbox.main_task sb).Kernel.Task.root_pfn;
  (* Direct kernel-mode access to sandbox user pages trips SMAP (C6). *)
  expect_fault "kernel touches sandbox page" (fun () -> Hw.Cpu.read_u8 st.cpu base) (function
    | Hw.Fault.Page_fault { user = false; _ } -> true
    | _ -> false)

let test_sandbox_terminate_scrubs () =
  let st = make_stack () in
  let mgr = make_manager st in
  let sb, base = make_sandbox st mgr "sb" in
  let task = Erebor.Sandbox.main_task sb in
  let pfn = Option.get (Kernel.resolve_pfn st.kern task ~addr:base) in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "TOPSECRET")));
  Alcotest.(check string) "data present" "TOPSECRET"
    (Bytes.to_string (Hw.Phys_mem.read_bytes st.mem (Hw.Phys_mem.addr_of_pfn pfn) 9));
  Erebor.Sandbox.terminate mgr sb;
  Alcotest.(check bytes) "frame zeroed" (Bytes.make 9 '\000')
    (Hw.Phys_mem.read_bytes st.mem (Hw.Phys_mem.addr_of_pfn pfn) 9);
  Alcotest.(check bool) "frame declassified" true
    (Erebor.Mmu_guard.class_of (Erebor.Monitor.guard st.monitor) pfn = Erebor.Mmu_guard.Free);
  Alcotest.(check bool) "frame freed" false
    (Kernel.Alloc.is_allocated st.kern.Kernel.cma pfn)

(* A PTE store must name an 8-byte slot. At [slot + 4] a store whose bit 0
   is clear looks like a non-present leaf, yet its high half lands in the
   next entry; at page offset 4092 it would straddle two pages. Both are
   refused as policy denials before anything is read or written. *)
let test_misaligned_pte_store_denied backend () =
  let st = make_stack ~backend () in
  let audit = Obs.Audit.create ~key:hw_key in
  Obs.Emitter.set_audit st.cpu.Hw.Cpu.obs (Some audit);
  let denies = Obs.Counter.attach st.cpu.Hw.Cpu.obs (Obs.Counter.create ()) in
  let guard = Erebor.Monitor.guard st.monitor in
  let atk = Kernel.create_task st.kern ~name:"atk" ~kind:Kernel.Task.Normal in
  let addr =
    Result.get_ok
      (Kernel.mmap st.kern atk ~len:4096 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon)
  in
  Result.get_ok (Kernel.handle_page_fault st.kern atk ~addr ~kind:Hw.Fault.Write);
  let slot =
    Option.get (Hw.Page_table.leaf_addr st.mem ~root_pfn:atk.Kernel.Task.root_pfn addr)
  in
  let neighbour = slot + 8 in
  let page_end = (slot land lnot 4095) + 4092 in
  let image () =
    List.map (Hw.Phys_mem.read_raw_u64 st.mem) [ slot; neighbour; page_end - 4; page_end + 4 ]
  in
  let before = image () in
  let denied_before = Erebor.Mmu_guard.denied_count guard in
  (* Bits 32-63 forge a user mapping of monitor frame 5; bit 0 is clear. *)
  let forged = Hw.Pte.make ~pfn:5 { Hw.Pte.default_flags with user = true } in
  let v = forged lsl 32 in
  let write_pte = st.kern.Kernel.privops.Kernel.Privops.write_pte in
  expect_violation "store at slot + 4" (fun () -> write_pte ~pte_addr:(slot + 4) v);
  expect_violation "store at page offset 4092" (fun () -> write_pte ~pte_addr:page_end v);
  Alcotest.(check (list int64)) "entries unchanged" before (image ());
  Alcotest.(check int) "two guard denials" (denied_before + 2)
    (Erebor.Mmu_guard.denied_count guard);
  Alcotest.(check int) "two Mmu_deny events" 2 (Obs.Counter.count denies Obs.Trace.Mmu_deny);
  Alcotest.(check int) "two audited denials" 2
    (List.length
       (List.filter
          (fun r -> r.Obs.Audit.category = "mmu" && r.Obs.Audit.verdict = Obs.Audit.Deny)
          (Obs.Audit.records audit)));
  (* The monitor-internal split refuses the same addresses the same way. *)
  (match
     Erebor.Mmu_guard.split_huge_leaf guard ~pte_addr:(slot + 4)
       ~alloc_ptp:(fun () -> Alcotest.fail "split allocated a table")
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "misaligned split accepted");
  Alcotest.(check int) "split denial counted" (denied_before + 3)
    (Erebor.Mmu_guard.denied_count guard);
  Alcotest.(check (list int64)) "entries still unchanged" before (image ())

(* Re-attaching an instance with another size is a refusal like the
   others: an [Error] and an audited Deny, with no region mapped. *)
let test_common_size_mismatch_refused () =
  let st = make_stack () in
  let audit = Obs.Audit.create ~key:hw_key in
  Obs.Emitter.set_audit st.cpu.Hw.Cpu.obs (Some audit);
  let mgr = make_manager st in
  let sb1, _ = make_sandbox st mgr "sb1" in
  let sb2, _ = make_sandbox st mgr "sb2" in
  let size = 8 * 4096 in
  ignore (Result.get_ok (Erebor.Sandbox.attach_common mgr sb1 ~name:"model" ~size));
  let task2 = Erebor.Sandbox.main_task sb2 in
  let regions () = Kernel.Vma.count task2.Kernel.Task.vmas in
  let regions_before = regions () in
  let sandbox_denies () =
    List.length
      (List.filter
         (fun r -> r.Obs.Audit.category = "sandbox" && r.Obs.Audit.verdict = Obs.Audit.Deny)
         (Obs.Audit.records audit))
  in
  (match Erebor.Sandbox.attach_common mgr sb2 ~name:"model" ~size:(4 * 4096) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size mismatch accepted");
  Alcotest.(check int) "refusal audited" 1 (sandbox_denies ());
  Alcotest.(check int) "no region mapped" regions_before (regions ());
  (* The right size still attaches, to the same instance. *)
  let a2 = Result.get_ok (Erebor.Sandbox.attach_common mgr sb2 ~name:"model" ~size) in
  (match Kernel.populate st.kern task2 ~start:a2 ~len:size with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one set of frames" 8
    (Erebor.Sandbox.common_instance_frames mgr ~name:"model")

(* Fuzz the EMC MMU interface: random stores must either be applied under
   policy or rejected — and the monitor's own memory must stay intact and
   unmappable throughout. *)
let prop_guard_fuzz =
  QCheck.Test.make ~name:"random EMC stores never break the registry" ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40)
              (tup3 (int_bound 16383) (int_bound 16383) bool))
    (fun stores ->
      let st = make_stack () in
      let guard = Erebor.Monitor.guard st.monitor in
      let denied_before = Erebor.Mmu_guard.denied_count guard in
      let errors = ref 0 in
      List.iter
        (fun (slot_pfn, target_pfn, user) ->
          let pte_addr = Hw.Phys_mem.addr_of_pfn slot_pfn + 8 * (target_pfn land 0x1ff) in
          let pte = Hw.Pte.make ~pfn:target_pfn { Hw.Pte.default_flags with user } in
          match st.kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr pte with
          | () -> ()
          | exception Erebor.Monitor.Policy_violation _ -> incr errors)
        stores;
      (* Every rejection was counted; monitor frames never reclassified. *)
      Erebor.Mmu_guard.denied_count guard - denied_before = !errors
      && List.for_all
           (fun pfn -> Erebor.Mmu_guard.class_of guard pfn = Erebor.Mmu_guard.Monitor)
           (List.init 32 (fun i -> i)))

(* The guard's per-frame tables against flat arrays: one class and one
   mapped bit per frame, updated by the rules of [classify], [declassify],
   [register_root] and the leaf store, on a machine whose frame count is
   not a multiple of the 512-frame leaf. Frames 2-5 hold a fixed
   four-level tree owned by sandbox 1; random ops target every other
   frame, the edges of the leaves and RAM, and hostile pfns. *)
module G = Erebor.Mmu_guard

type guard_op =
  | Classify of int * int  (* pfn, class choice *)
  | Declassify of int
  | Register_root of int
  | Map of int * int  (* leaf slot, target pfn *)
  | Unmap of int

let guard_frames = 1300
let chain = [ 2; 3; 4; 5 ]

let prop_guard_tables_flat_model =
  let gen_pfn =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ -1; 0; 1; 6; 511; 512; 513; 1023; 1024; guard_frames - 1;
                       guard_frames; guard_frames + 1; max_int; min_int ]);
          (2, int_range 6 (guard_frames - 1));
        ])
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun p c -> Classify (p, c)) gen_pfn (int_bound 4));
          (2, map (fun p -> Declassify p) gen_pfn);
          (1, map (fun p -> Register_root p) gen_pfn);
          (4, map2 (fun slot p -> Map (slot, p)) (int_bound 7) gen_pfn);
          (1, map (fun slot -> Unmap slot) (int_bound 7));
        ])
  in
  QCheck.Test.make ~name:"guard frame tables agree with flat arrays" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let mem = Hw.Phys_mem.create ~frames:guard_frames in
      let cpu =
        Hw.Cpu.create ~id:0 ~mem ~clock:(Hw.Cycles.clock ()) ~timer_period:1_000_000 ()
      in
      let backend = Erebor.Isolation.create Erebor.Isolation.Pks ~cpu in
      let g = G.create ~mem ~cpu ~backend in
      let common = G.common g ~instance:"model" in
      let classes = Array.make guard_frames G.Free in
      let mapped = Array.make guard_frames false in
      let slots = Array.make 8 None in
      let in_range p = p >= 0 && p < guard_frames in
      let model_class p = if in_range p then classes.(p) else G.Free in
      let set p c = if in_range p then classes.(p) <- c in
      (* The tree: root 2 (sandbox 1), then one interior store per level. *)
      ignore (G.register_root g ~root_pfn:2);
      G.register_sandbox_root g ~root_pfn:2 ~sandbox:1;
      List.iter
        (fun (parent, child) ->
          ignore
            (G.write_pte g ~trusted:true ~pte_addr:(Hw.Phys_mem.addr_of_pfn parent)
               (Hw.Pte.make ~pfn:child Hw.Pte.default_flags)))
        [ (2, 3); (3, 4); (4, 5) ];
      set 2 (G.Ptp { level = 0; root = 2; sandbox = 1 });
      List.iteri (fun i p -> set p (G.Ptp { level = i + 1; root = 2; sandbox = -1 })) [ 3; 4; 5 ];
      let choose = function
        | 0 -> G.Monitor
        | 1 -> G.Kernel_text
        | 2 -> G.Confined { owner = 1 }
        | 3 -> G.Confined { owner = 2 }
        | _ -> G.Common common
      in
      let same a b = match (a, b) with G.Common x, G.Common y -> x == y | _ -> a = b in
      let agree what a b = if a <> b then QCheck.Test.fail_reportf "%s disagrees" what in
      List.iter
        (function
          | Classify (p, _) | Declassify p | Register_root p when List.mem p chain -> ()
          | Classify (p, c) ->
              let cls = choose c in
              let expect =
                match model_class p with
                | G.Free ->
                    set p cls;
                    true
                | G.Ptp _ | G.Monitor -> false
                | cur -> same cur cls
              in
              agree "classify" (Result.is_ok (G.classify g ~pfn:p cls)) expect
          | Declassify p ->
              G.declassify g ~pfn:p;
              set p G.Free;
              if in_range p then mapped.(p) <- false
          | Register_root p ->
              let expect =
                match model_class p with
                | G.Free ->
                    set p (G.Ptp { level = 0; root = p; sandbox = -1 });
                    true
                | G.Ptp { level = 0; _ } -> true
                | _ -> false
              in
              agree "register_root" (Result.is_ok (G.register_root g ~root_pfn:p)) expect
          | Map (slot, p) ->
              (* A PTE cannot name a negative or 2^40-sized pfn; past-RAM
                 targets stand in for them. *)
              let p = if p < 0 || p >= 1 lsl 40 then guard_frames + 1 else p in
              let pte = Hw.Pte.make ~pfn:p { Hw.Pte.default_flags with user = true } in
              let target = Hw.Pte.pfn pte in
              (* The old leaf's frame loses its mapping before the new
                 store is judged, as the guard releases it. *)
              (match slots.(slot) with
              | Some old -> (
                  match model_class old with G.Confined _ -> mapped.(old) <- false | _ -> ())
              | None -> ());
              let expect =
                match model_class target with
                | G.Confined { owner = 1 } when not mapped.(target) ->
                    mapped.(target) <- true;
                    true
                | G.Confined _ | G.Monitor | G.Free -> false
                | G.Ptp _ | G.Kernel_text | G.Common _ -> true
              in
              if expect then slots.(slot) <- Some target;
              agree "leaf store"
                (Result.is_ok
                   (G.write_pte g ~trusted:false
                      ~pte_addr:(Hw.Phys_mem.addr_of_pfn 5 + (8 * slot)) pte))
                expect
          | Unmap slot ->
              (match slots.(slot) with
              | Some old -> (
                  match model_class old with G.Confined _ -> mapped.(old) <- false | _ -> ())
              | None -> ());
              slots.(slot) <- None;
              agree "leaf clear"
                (Result.is_ok
                   (G.write_pte g ~trusted:false
                      ~pte_addr:(Hw.Phys_mem.addr_of_pfn 5 + (8 * slot)) Hw.Pte.empty))
                true)
        ops;
      let probes = List.init guard_frames Fun.id @ [ -1; guard_frames; guard_frames + 1; max_int; min_int ] in
      List.iter
        (fun p ->
          if not (same (G.class_of g p) (model_class p)) then
            QCheck.Test.fail_reportf "class_of %d disagrees" p;
          agree (Printf.sprintf "is_confined_mapped %d" p) (G.is_confined_mapped g ~pfn:p)
            (in_range p && mapped.(p)))
        probes;
      agree "ptp_count" (G.ptp_count g)
        (Array.fold_left (fun n c -> match c with G.Ptp _ -> n + 1 | _ -> n) 0 classes);
      true)

(* The Fig. 5 listing has no data-dependent branch, so it retires the
   count [Gate.create] took whatever the interpreter's registers, scratch
   memory and call stack hold when it starts. A random program run first
   leaves arbitrary values in all three (calls push return slots); a
   listing whose path depended on any of them would retire another count
   on some of these states. *)
let prop_gate_retires_constant =
  let reg = QCheck.Gen.map (fun i -> Option.get (Hw.Isa.reg_of_code i)) (QCheck.Gen.int_bound 7) in
  let gen_instr =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun r v -> Hw.Isa.Mov_imm (r, v)) reg (int_bound (Hw.Isa.imm_range - 1)));
          (2, map2 (fun a b -> Hw.Isa.Add (a, b)) reg reg);
          (3, map2 (fun a b -> Hw.Isa.Store (a, b)) reg reg);
          (1, map2 (fun a b -> Hw.Isa.Load (a, b)) reg reg);
          (1, map (fun k -> Hw.Isa.Call k) (int_range 1 3));
          (1, map (fun k -> Hw.Isa.Jmp k) (int_range 1 3));
        ])
  in
  let cpu =
    Hw.Cpu.create ~id:0 ~mem:(Hw.Phys_mem.create ~frames:16) ~clock:(Hw.Cycles.clock ())
      ~timer_period:1_000_000 ()
  in
  let gate =
    Erebor.Gate.create ~cpu ~code_base:0x1000
      ~backend:(Erebor.Isolation.create Erebor.Isolation.Pks ~cpu) ()
  in
  let listing = Result.get_ok (Hw.Icode.of_bytes (Erebor.Gate.code_bytes gate)) in
  QCheck.Test.make ~name:"gate listing retires a constant count" ~count:500
    QCheck.(make Gen.(list_size (int_range 1 40) gen_instr))
    (fun setup ->
      let st = Hw.Icode.make_state () in
      let prog = Result.get_ok (Hw.Icode.decode (Hw.Isa.assemble setup)) in
      ignore (Hw.Icode.run prog st ~entry:0 ~fuel:256);
      let retired = Hw.Icode.run listing st ~entry:0 ~fuel:64 in
      if retired <> Erebor.Gate.retires gate then
        QCheck.Test.fail_reportf "listing retired %d, create took %d" retired
          (Erebor.Gate.retires gate);
      true)

(* ------------------------------------------------------------------ *)
(* Secure channel (C5)                                                 *)
(* ------------------------------------------------------------------ *)

let handshake st =
  let rng_c = Crypto.Drbg.create ~seed:"client rng" in
  let rng_s = Crypto.Drbg.create ~seed:"server rng" in
  let expected =
    (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in
  let client = Erebor.Channel.Client.create ~rng:rng_c ~hw_key ~expected_mrtd:expected in
  let wire = Erebor.Channel.Wire.create () in
  Erebor.Channel.Wire.send wire (Erebor.Channel.Client.hello client);
  let hello = Option.get (Erebor.Channel.Wire.recv wire) in
  match Erebor.Channel.Server.accept ~monitor:st.monitor ~rng:rng_s ~client_hello:hello with
  | Error e -> failwith e
  | Ok (server, server_hello) ->
      Erebor.Channel.Wire.send wire server_hello;
      (match Erebor.Channel.Client.finish client
               ~server_hello:(Option.get (Erebor.Channel.Wire.recv wire)) with
      | Ok () -> ()
      | Error e -> failwith e);
      (client, server, wire)

let contains_substring hay needle =
  let h = Bytes.to_string hay in
  let n = String.length needle and hl = String.length h in
  let rec go i = i + n <= hl && (String.sub h i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_channel_end_to_end () =
  let st = make_stack () in
  let client, server, wire = handshake st in
  let secret = "patient record 12345" in
  let request = Erebor.Channel.Client.seal_request client (Bytes.of_string secret) in
  Erebor.Channel.Wire.send wire request;
  let got =
    Result.get_ok
      (Erebor.Channel.Server.open_request server (Option.get (Erebor.Channel.Wire.recv wire)))
  in
  Alcotest.(check string) "monitor decrypts request" secret (Bytes.to_string got);
  let response = Erebor.Channel.Server.seal_response server ~bucket:256 (Bytes.of_string "diagnosis: ok") in
  Erebor.Channel.Wire.send wire response;
  (match
     Erebor.Channel.Client.open_response client (Option.get (Erebor.Channel.Wire.recv wire))
   with
  | Ok b -> Alcotest.(check string) "client decrypts response" "diagnosis: ok" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  (* The untrusted proxy saw ciphertext only. *)
  List.iter
    (fun msg ->
      if contains_substring msg secret || contains_substring msg "diagnosis" then
        Alcotest.fail "plaintext leaked onto the wire")
    (Erebor.Channel.Wire.snoop wire)

(* Tenant bytes that look like any in-band header still reach the monitor
   whole: the channel hands over every authenticated byte and interprets
   none of them. *)
let channel_probe = "ERTC1" ^ String.make 17 '\000' ^ "tenant-secret"

let test_channel_header_shaped_payload () =
  let st = make_stack () in
  let client, server, _ = handshake st in
  let sealed = Erebor.Channel.Client.seal_request client (Bytes.of_string channel_probe) in
  let got = Result.get_ok (Erebor.Channel.Server.open_request server sealed) in
  Alcotest.(check int) "every sealed byte arrives" 35 (Bytes.length got);
  Alcotest.(check string) "payload intact" channel_probe (Bytes.to_string got)

let test_channel_rejects_wrong_mrtd () =
  let st = make_stack () in
  let rng = Crypto.Drbg.create ~seed:"c" in
  let client =
    Erebor.Channel.Client.create ~rng ~hw_key
      ~expected_mrtd:(Crypto.Sha256.digest_string "some other monitor")
  in
  let hello = Erebor.Channel.Client.hello client in
  match Erebor.Channel.Server.accept ~monitor:st.monitor ~rng ~client_hello:hello with
  | Error e -> Alcotest.fail e
  | Ok (_, server_hello) -> (
      match Erebor.Channel.Client.finish client ~server_hello with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "client accepted an unexpected measurement")

let test_channel_rejects_impersonation () =
  (* An attacker (the untrusted OS) cannot mint a valid report: it has no
     access to the tdcall (sensitive) and no hardware key (C5). *)
  let st = make_stack () in
  let rng = Crypto.Drbg.create ~seed:"attacker" in
  let real =
    (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in
  let client = Erebor.Channel.Client.create ~rng ~hw_key ~expected_mrtd:real in
  ignore (Erebor.Channel.Client.hello client);
  (* Forge: correct-looking report, attacker-chosen MAC key. *)
  let atk_kp = Crypto.Dh.generate rng in
  let fake_report =
    let m = Tdx.Attest.create_measurements () in
    Tdx.Attest.generate m ~hw_key:(Crypto.Sha256.digest_string "guessed key")
      ~report_data:Bytes.empty
  in
  let forged_hello =
    Bytes.cat (Crypto.Dh.public_bytes atk_kp) (Erebor.Channel.serialize_report fake_report)
  in
  match Erebor.Channel.Client.finish client ~server_hello:forged_hello with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "client accepted a forged report"

let test_channel_replay_binding () =
  (* A report minted for one handshake cannot authenticate another: the
     report_data binds the DH transcript. *)
  let st = make_stack () in
  let _, _, _ = handshake st in
  let rng = Crypto.Drbg.create ~seed:"second client" in
  let expected =
    (Erebor.Monitor.tdreport st.monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in
  let client2 = Erebor.Channel.Client.create ~rng ~hw_key ~expected_mrtd:expected in
  ignore (Erebor.Channel.Client.hello client2);
  (* Replay: server hello from a *different* handshake (fresh keys, report
     bound to other transcript). *)
  let other_rng = Crypto.Drbg.create ~seed:"other" in
  let other_kp = Crypto.Dh.generate other_rng in
  let other_pub = Crypto.Dh.public_bytes other_kp in
  let stale_report = Erebor.Monitor.tdreport st.monitor ~report_data:(Bytes.of_string "stale") in
  let replayed = Bytes.cat other_pub (Erebor.Channel.serialize_report stale_report) in
  match Erebor.Channel.Client.finish client2 ~server_hello:replayed with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "client accepted a replayed report"

let test_channel_padding_hides_size () =
  let st = make_stack () in
  let _, server, _ = handshake st in
  let r1 = Erebor.Channel.Server.seal_response server ~bucket:1024 (Bytes.of_string "no") in
  let r2 =
    Erebor.Channel.Server.seal_response server ~bucket:1024 (Bytes.make 900 'x')
  in
  Alcotest.(check int) "equal wire sizes" (Bytes.length r1) (Bytes.length r2)

let test_channel_tamper_rejected () =
  let st = make_stack () in
  let client, server, _ = handshake st in
  let request = Erebor.Channel.Client.seal_request client (Bytes.of_string "data") in
  Bytes.set request (Bytes.length request - 1)
    (Char.chr (Char.code (Bytes.get request (Bytes.length request - 1)) lxor 1));
  match Erebor.Channel.Server.open_request server request with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered request accepted"

let test_pad_unpad_roundtrip () =
  List.iter
    (fun n ->
      let data = Bytes.init n (fun i -> Char.chr (i mod 256)) in
      let padded = Erebor.Channel.pad_to_bucket ~bucket:64 data in
      Alcotest.(check int) "multiple of bucket" 0 (Bytes.length padded mod 64);
      Alcotest.(check bytes) "roundtrip" data (Result.get_ok (Erebor.Channel.unpad padded)))
    [ 0; 1; 55; 56; 64; 100; 1000 ]

(* A length word near [max_int] used to wrap [len + 8] negative, pass the
   bounds check, and raise out of [Bytes.sub]. Both decoders must answer
   such a word with [Error]. *)
let test_hostile_length_words () =
  let with_len size ~off len =
    let b = Bytes.make size '\000' in
    Bytes.set_int64_le b off (Int64.of_int len);
    b
  in
  List.iter
    (fun len ->
      (match Erebor.Channel.unpad (with_len 16 ~off:0 len) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "unpad accepted length %d" len);
      match Erebor.Channel.decode_sealed (with_len 64 ~off:44 len) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decode_sealed accepted length %d" len)
    [ max_int; max_int - 3; max_int - 7; max_int - 51; 9; -1 ];
  Alcotest.(check bytes) "in-range length still decodes" (Bytes.make 8 '\000')
    (Result.get_ok (Erebor.Channel.unpad (with_len 16 ~off:0 8)))

(* Totality of the channel's wire decoders on mutated real traffic. The
   seeds are bytes a live session produces: the sealed request and the
   report inside the server hello (both off the wire), the header-shaped
   probe payload the client seals, and that probe padded as a response.
   Mutations flip bits, truncate, extend, and plant le64 words near 0,
   [max_int] and [min_int] at the offsets where the formats keep one (0,
   44) and where the probe's header-shaped words sit (5, 13). Every
   decoder must answer [Ok] or [Error], never raise; when it accepts,
   re-encoding what it returned must give the input back (for [unpad],
   everything up to the end of the payload: the padding bytes are
   ignored). *)
let wire_seeds =
  lazy
    (let st = make_stack () in
     let client, _, wire = handshake st in
     let server_hello = List.nth (Erebor.Channel.Wire.snoop wire) 1 in
     let report = Bytes.sub server_hello 192 (Bytes.length server_hello - 192) in
     let payload = Bytes.of_string channel_probe in
     [|
       Erebor.Channel.Client.seal_request client payload;
       payload;
       Erebor.Channel.pad_to_bucket ~bucket:64 payload;
       report;
     |])

type wire_mutation =
  | Flip of int * int  (* position, xor mask *)
  | Truncate of int
  | Extend of string
  | Len_word of int * int64  (* offset, value *)

let pp_wire_mutation = function
  | Flip (i, m) -> Printf.sprintf "flip %d ^ 0x%02x" i m
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Extend e -> Printf.sprintf "extend by %S" e
  | Len_word (off, v) -> Printf.sprintf "le64 at %d := %Ld" off v

let apply_wire_mutation b = function
  | Flip (i, m) ->
      let b = Bytes.copy b in
      if Bytes.length b > 0 then begin
        let i = i mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor m))
      end;
      b
  | Truncate n -> Bytes.sub b 0 (min n (Bytes.length b))
  | Extend e -> Bytes.cat b (Bytes.of_string e)
  | Len_word (off, v) ->
      let b = Bytes.copy b in
      if off + 8 <= Bytes.length b then Bytes.set_int64_le b off v;
      b

let gen_wire_mutation =
  let open QCheck.Gen in
  let small = int_bound 96 in
  let word =
    oneof
      [
        map Int64.of_int small;
        map (fun k -> Int64.sub Int64.max_int (Int64.of_int k)) small;
        map (fun k -> Int64.of_int (max_int - k)) small;
        map (fun k -> Int64.add Int64.min_int (Int64.of_int k)) small;
        map (fun k -> Int64.of_int (min_int + k)) small;
      ]
  in
  frequency
    [
      (4, map2 (fun i m -> Flip (i, m)) (int_bound 400) (int_range 1 255));
      (2, map (fun n -> Truncate n) (int_bound 320));
      (2, map (fun e -> Extend e) (string_size (int_bound 16)));
      (4, map2 (fun off v -> Len_word (off, v)) (oneofl [ 0; 5; 13; 44 ]) word);
    ]

let decoders_total b =
  let fail name e =
    QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e)
      (Bytes.to_string b)
  in
  let check name ok = if not ok then QCheck.Test.fail_reportf "%s: re-encoding differs" name in
  (match Erebor.Channel.unpad b with
  | Ok p ->
      let again = Erebor.Channel.pad_to_bucket ~bucket:(Bytes.length b) p in
      let n = 8 + Bytes.length p in
      check "unpad"
        (Bytes.length again = Bytes.length b
        && Bytes.equal (Bytes.sub again 0 n) (Bytes.sub b 0 n))
  | Error _ -> ()
  | exception e -> fail "unpad" e);
  (match Erebor.Channel.decode_sealed b with
  | Ok s -> check "decode_sealed" (Bytes.equal (Erebor.Channel.encode_sealed s) b)
  | Error _ -> ()
  | exception e -> fail "decode_sealed" e);
  (match Erebor.Channel.deserialize_report b with
  | Ok r -> check "deserialize_report" (Bytes.equal (Erebor.Channel.serialize_report r) b)
  | Error _ -> ()
  | exception e -> fail "deserialize_report" e);
  true

let prop_wire_decoders_total =
  let arb =
    QCheck.make
      ~print:(fun (seed, ms) ->
        Printf.sprintf "seed %d: %s" seed
          (String.concat "; " (List.map pp_wire_mutation ms)))
      QCheck.Gen.(pair (int_bound 3) (list_size (int_range 1 4) gen_wire_mutation))
  in
  QCheck.Test.make ~name:"wire decoders total on mutated traffic" ~count:2000 arb
    (fun (seed, ms) ->
      let b = (Lazy.force wire_seeds).(seed) in
      (* The unmutated seed must decode as itself too. *)
      ignore (decoders_total b);
      decoders_total (List.fold_left apply_wire_mutation b ms))

let () =
  Alcotest.run "erebor"
    [
      ( "policy",
        [
          Alcotest.test_case "pkrs values" `Quick test_policy_pkrs;
          Alcotest.test_case "inventory" `Quick test_policy_inventory;
        ] );
      ( "boot (C1)",
        [
          claim "accepts benign" test_boot_accepts_benign;
          claim "rejects sensitive" test_boot_rejects_sensitive;
          claim "data not scanned" test_boot_data_section_not_scanned;
          claim "deterministic measurement" test_boot_measurement_deterministic;
          claim "dynamic code" test_dynamic_code_verification;
        ] );
      ( "gates (C4)",
        [
          claim "rogue entry #CP" (test_gate_rogue_entry Erebor.Isolation.Pks);
          claim "rogue entry #CP (wp)"
            (test_gate_rogue_entry Erebor.Isolation.Write_protect);
          claim "rogue entry #CP (tmemk)"
            (test_gate_rogue_entry Erebor.Isolation.Tme_mk);
          claim "pkrs switching" test_gate_pkrs_switching;
          claim "exception safety" test_gate_pkrs_restored_on_exception;
          claim "interrupt gate" (test_gate_interrupt_revokes Erebor.Isolation.Pks);
          claim "interrupt gate (wp)"
            (test_gate_interrupt_revokes Erebor.Isolation.Write_protect);
          claim "interrupt gate (tmemk)"
            (test_gate_interrupt_revokes Erebor.Isolation.Tme_mk);
          claim "emc cost" test_gate_emc_cost;
          QCheck_alcotest.to_alcotest prop_gate_retires_constant;
          claim "round trips allocate nothing (pks)"
            (test_gate_round_trips_zero_alloc Erebor.Isolation.Pks);
          claim "round trips allocate nothing (wp)"
            (test_gate_round_trips_zero_alloc Erebor.Isolation.Write_protect);
          claim "round trips allocate nothing (tmemk)"
            (test_gate_round_trips_zero_alloc Erebor.Isolation.Tme_mk);
        ] );
      ( "gate integrity",
        [
          claim "bytes installed (pks)" (test_gate_bytes_installed Erebor.Isolation.Pks);
          claim "bytes installed (wp)" (test_gate_bytes_installed Erebor.Isolation.Write_protect);
          claim "bytes installed (tmemk)" (test_gate_bytes_installed Erebor.Isolation.Tme_mk);
          claim "frame unwritable (pks)" (test_gate_frame_unwritable Erebor.Isolation.Pks);
          claim "frame unwritable (wp)"
            (test_gate_frame_unwritable Erebor.Isolation.Write_protect);
          claim "frame unwritable (tmemk)" (test_gate_frame_unwritable Erebor.Isolation.Tme_mk);
          Alcotest.test_case "corrupted gate not attested" `Quick
            test_corrupted_gate_not_attested;
        ] );
      ( "mmu/privops (C2-C4)",
        [
          claim "ptp write-protected" test_kernel_cannot_write_ptp;
          claim "monitor unmappable" test_kernel_cannot_map_monitor_memory;
          claim "stray pte store" test_kernel_cannot_store_outside_ptp;
          claim "protections pinned" test_kernel_cannot_disable_protections;
          claim "lstar interposed" test_kernel_lstar_interposed;
          claim "ghci policy" test_ghci_policy;
          claim "erebor privop costs" test_erebor_privop_costs;
          claim "misaligned pte store (pks)"
            (test_misaligned_pte_store_denied Erebor.Isolation.Pks);
          claim "misaligned pte store (wp)"
            (test_misaligned_pte_store_denied Erebor.Isolation.Write_protect);
          claim "misaligned pte store (tmemk)"
            (test_misaligned_pte_store_denied Erebor.Isolation.Tme_mk);
        ] );
      ( "sandbox (C6-C8)",
        [
          claim "confined basics" test_sandbox_confined_basics;
          claim "single mapping" test_confined_single_mapping;
          claim "downgrade flushes tlb" test_mmu_guard_downgrade_flushes_tlb;
          claim "undeclared memory refused" test_sandbox_anon_mapping_refused;
          claim "common sharing" test_common_sharing;
          claim "common sealed" test_common_sealed_after_data;
          claim "common size mismatch" test_common_size_mismatch_refused;
          claim "syscall kill" test_sandbox_kills_on_syscall_after_data;
          claim "channel ioctl" test_sandbox_channel_ioctl;
          claim "#VE kill" test_sandbox_ve_kill;
          claim "cpuid cached" test_sandbox_cpuid_cached;
          claim "interrupt masking" test_sandbox_interrupt_masks_state;
          claim "interrupt masking allocates nothing"
            test_sandbox_interrupt_zero_alloc;
          claim "uintr disabled" test_sandbox_uintr_disabled;
          claim "usercopy veto" test_usercopy_veto_on_sealed_sandbox;
          claim "smap blocks kernel" test_kernel_smap_blocks_sandbox_read;
          claim "terminate scrubs" test_sandbox_terminate_scrubs;
          QCheck_alcotest.to_alcotest prop_guard_fuzz;
          QCheck_alcotest.to_alcotest prop_guard_tables_flat_model;
        ] );
      ( "channel (C5)",
        [
          claim "end to end" test_channel_end_to_end;
          claim "wrong mrtd" test_channel_rejects_wrong_mrtd;
          claim "impersonation" test_channel_rejects_impersonation;
          claim "replay binding" test_channel_replay_binding;
          claim "padding" test_channel_padding_hides_size;
          claim "tamper" test_channel_tamper_rejected;
          claim "pad/unpad" test_pad_unpad_roundtrip;
          claim "hostile length words"
            test_hostile_length_words;
          QCheck_alcotest.to_alcotest prop_wire_decoders_total;
          claim "header-shaped payload arrives whole"
            test_channel_header_shaped_payload;
        ] );
    ]
