(* Tests for the simulated TDX module and the host VMM. *)

let make_td () =
  let mem = Hw.Phys_mem.create ~frames:256 in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key:(Crypto.Sha256.digest_string "hwkey") in
  (mem, clock, cpu, td)

(* ------------------------------------------------------------------ *)
(* Sept                                                                *)
(* ------------------------------------------------------------------ *)

let test_sept_default_private () =
  let sept = Tdx.Sept.create ~frames:8 in
  for pfn = 0 to 7 do
    Alcotest.(check bool) "private" false (Tdx.Sept.is_shared sept pfn)
  done;
  Alcotest.(check int) "none shared" 0 (Tdx.Sept.shared_count sept)

let test_sept_convert () =
  let sept = Tdx.Sept.create ~frames:8 in
  Tdx.Sept.convert sept 3 Tdx.Sept.Shared;
  Tdx.Sept.convert sept 5 Tdx.Sept.Shared;
  Alcotest.(check bool) "3 shared" true (Tdx.Sept.is_shared sept 3);
  Alcotest.(check (list int)) "shared list" [ 3; 5 ] (Tdx.Sept.shared_pfns sept);
  Tdx.Sept.convert sept 3 Tdx.Sept.Private;
  Alcotest.(check (list int)) "after revert" [ 5 ] (Tdx.Sept.shared_pfns sept);
  Alcotest.check_raises "oob" (Invalid_argument "Sept: pfn out of range") (fun () ->
      ignore (Tdx.Sept.state sept 8))

(* ------------------------------------------------------------------ *)
(* Attestation                                                         *)
(* ------------------------------------------------------------------ *)

let test_attest_measurement_chain () =
  let a = Tdx.Attest.create_measurements () in
  let b = Tdx.Attest.create_measurements () in
  Tdx.Attest.extend_mrtd a (Bytes.of_string "firmware");
  Tdx.Attest.extend_mrtd a (Bytes.of_string "monitor");
  Tdx.Attest.extend_mrtd b (Bytes.of_string "firmware");
  Tdx.Attest.extend_mrtd b (Bytes.of_string "monitor");
  Alcotest.(check bytes) "deterministic chain" (Tdx.Attest.mrtd a) (Tdx.Attest.mrtd b);
  Tdx.Attest.extend_mrtd b (Bytes.of_string "evil");
  Alcotest.(check bool) "extension changes mrtd" false
    (Bytes.equal (Tdx.Attest.mrtd a) (Tdx.Attest.mrtd b));
  (* Order matters. *)
  let c = Tdx.Attest.create_measurements () in
  Tdx.Attest.extend_mrtd c (Bytes.of_string "monitor");
  Tdx.Attest.extend_mrtd c (Bytes.of_string "firmware");
  Alcotest.(check bool) "order-sensitive" false
    (Bytes.equal (Tdx.Attest.mrtd a) (Tdx.Attest.mrtd c))

let test_attest_report_verify () =
  let m = Tdx.Attest.create_measurements () in
  Tdx.Attest.extend_mrtd m (Bytes.of_string "boot");
  let hw_key = Crypto.Sha256.digest_string "fused key" in
  let report = Tdx.Attest.generate m ~hw_key ~report_data:(Bytes.of_string "client nonce") in
  Alcotest.(check bool) "verifies" true (Tdx.Attest.verify ~hw_key report);
  Alcotest.(check int) "report_data padded" 64 (Bytes.length report.Tdx.Attest.report_data);
  (* Forgery attempts. *)
  let forged = { report with Tdx.Attest.mrtd = Crypto.Sha256.digest_string "other" } in
  Alcotest.(check bool) "forged mrtd rejected" false (Tdx.Attest.verify ~hw_key forged);
  let wrong_key = Crypto.Sha256.digest_string "guess" in
  Alcotest.(check bool) "wrong key rejected" false (Tdx.Attest.verify ~hw_key:wrong_key report);
  Alcotest.check_raises "oversized report_data"
    (Invalid_argument "Attest: report_data exceeds 64 bytes") (fun () ->
      ignore (Tdx.Attest.generate m ~hw_key ~report_data:(Bytes.make 65 'x')))

let test_attest_rtmr () =
  let m = Tdx.Attest.create_measurements () in
  Tdx.Attest.extend_rtmr m ~index:2 (Bytes.of_string "event");
  Alcotest.(check bool) "rtmr2 changed" false
    (Bytes.equal (Tdx.Attest.rtmr m ~index:2) (Bytes.make 32 '\000'));
  Alcotest.(check bytes) "rtmr0 untouched" (Bytes.make 32 '\000') (Tdx.Attest.rtmr m ~index:0);
  Alcotest.check_raises "bad index" (Invalid_argument "Attest: bad RTMR index") (fun () ->
      Tdx.Attest.extend_rtmr m ~index:4 Bytes.empty)

(* ------------------------------------------------------------------ *)
(* Td_module                                                           *)
(* ------------------------------------------------------------------ *)

let test_tdcall_privileged () =
  let _, _, cpu, td = make_td () in
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Tdreport { report_data = Bytes.empty }) with
  | _ -> Alcotest.fail "tdcall from user mode succeeded"
  | exception Hw.Fault.Fault (Hw.Fault.General_protection _) -> ()

let test_tdcall_report_cost () =
  let _, clock, cpu, td = make_td () in
  let t0 = Hw.Cycles.now clock in
  (match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Tdreport { report_data = Bytes.empty }) with
  | Tdx.Td_module.Ok_report r ->
      Alcotest.(check bool) "report verifies" true
        (Tdx.Attest.verify ~hw_key:(Crypto.Sha256.digest_string "hwkey") r)
  | _ -> Alcotest.fail "expected report");
  Alcotest.(check int) "tdreport cost" Hw.Cycles.Cost.tdreport_native
    (Hw.Cycles.now clock - t0);
  Alcotest.(check int) "counted" 1 (Tdx.Td_module.tdreport_count td)

let test_tdcall_vmcall_scrubs () =
  let _, _, cpu, td = make_td () in
  let host = Vmm.Host.create () in
  let observed_regs = ref (-1L) in
  Tdx.Td_module.set_vmm td (fun v ->
      observed_regs := cpu.Hw.Cpu.regs.(0);
      Vmm.Host.handler host v);
  cpu.Hw.Cpu.regs.(0) <- 0x5EC12E7L;
  (match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Vmcall (Tdx.Ghci.Cpuid 1)) with
  | Tdx.Td_module.Ok_int _ -> ()
  | _ -> Alcotest.fail "vmcall failed");
  Alcotest.(check int64) "host saw scrubbed regs" 0L !observed_regs;
  Alcotest.(check int64) "guest regs restored" 0x5EC12E7L cpu.Hw.Cpu.regs.(0)

(* A synchronous VMCALL saves the guest's registers into the core's own
   save area: the only allocation left per exit is the host's vmcall-log
   cons cell (3 words). The handler still runs against scrubbed registers
   and the guest gets all sixteen back. *)
let test_tdcall_vmcall_alloc () =
  let _, _, cpu, td = make_td () in
  let host = Vmm.Host.create () in
  let scrubbed = ref true in
  Tdx.Td_module.set_vmm td (fun v ->
      for i = 0 to Hw.Cpu.nregs - 1 do
        if not (Int64.equal cpu.Hw.Cpu.regs.(i) 0L) then scrubbed := false
      done;
      Vmm.Host.handler host v);
  let guest = Array.init Hw.Cpu.nregs (fun i -> Int64.of_int (0x1000 + i)) in
  Array.blit guest 0 cpu.Hw.Cpu.regs 0 Hw.Cpu.nregs;
  let hlt = Tdx.Ghci.Vmcall Tdx.Ghci.Hlt in
  ignore (Tdx.Td_module.tdcall td cpu hlt);
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let n = 1000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to n do
    match Tdx.Td_module.tdcall td cpu hlt with
    | Tdx.Td_module.Ok_unit -> ()
    | _ -> Alcotest.fail "vmcall failed"
  done;
  let words = (Gc.minor_words () -. m0 -. probe) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per VMCALL, at most the log's cons cell" words)
    true (words <= 3.0);
  Alcotest.(check bool) "host saw scrubbed regs" true !scrubbed;
  Alcotest.(check (array int64)) "guest regs restored" guest cpu.Hw.Cpu.regs;
  Alcotest.(check int) "every exit logged" (n + 1) (Vmm.Host.vmcall_count host)

(* Synchronous exits do not nest: a handler that re-enters the TDX module
   trips the save area's assertion, and the outer exit still hands the
   guest its registers back on the way out. *)
let test_tdcall_vmcall_no_nesting () =
  let _, _, cpu, td = make_td () in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (fun v ->
      ignore (Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Vmcall Tdx.Ghci.Hlt));
      Vmm.Host.handler host v);
  cpu.Hw.Cpu.regs.(3) <- 0xC0FFEEL;
  (match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Vmcall Tdx.Ghci.Hlt) with
  | _ -> Alcotest.fail "nested synchronous exit accepted"
  | exception Assert_failure _ -> ());
  Alcotest.(check int64) "guest regs restored" 0xC0FFEEL cpu.Hw.Cpu.regs.(3);
  Alcotest.(check bool) "save area released" false cpu.Hw.Cpu.exit_save.Hw.Cpu.busy

let test_tdcall_map_gpa () =
  let _, _, cpu, td = make_td () in
  (match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Map_gpa { pfn = 10; shared = true }) with
  | Tdx.Td_module.Ok_unit -> ()
  | _ -> Alcotest.fail "map_gpa failed");
  Alcotest.(check bool) "now shared" true (Tdx.Sept.is_shared (Tdx.Td_module.sept td) 10);
  (match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Map_gpa { pfn = 10; shared = false }) with
  | Tdx.Td_module.Ok_unit -> ()
  | _ -> Alcotest.fail "unmap_gpa failed");
  Alcotest.(check bool) "private again" false
    (Tdx.Sept.is_shared (Tdx.Td_module.sept td) 10);
  match Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Map_gpa { pfn = 9999; shared = true }) with
  | Tdx.Td_module.Error_leaf _ -> ()
  | _ -> Alcotest.fail "oob map_gpa accepted"

let test_measure_initial_finalizes () =
  let _, _, cpu, td = make_td () in
  Tdx.Td_module.measure_initial td (Bytes.of_string "firmware");
  ignore (Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Tdreport { report_data = Bytes.empty }));
  Alcotest.check_raises "post-finalize measure rejected"
    (Invalid_argument "Td_module.measure_initial: TD build already finalized") (fun () ->
      Tdx.Td_module.measure_initial td (Bytes.of_string "late"))

let test_async_exit_scrub () =
  let _, _, cpu, td = make_td () in
  cpu.Hw.Cpu.regs.(5) <- 777L;
  let seen = ref (-1L) in
  Tdx.Td_module.with_async_exit td cpu (fun () -> seen := cpu.Hw.Cpu.regs.(5));
  Alcotest.(check int64) "host sees zeros" 0L !seen;
  Alcotest.(check int64) "restored after resume" 777L cpu.Hw.Cpu.regs.(5);
  (* A host action that raises still hands the guest its registers back and
     frees the module's save area for the next exit. *)
  (match Tdx.Td_module.with_async_exit td cpu (fun () -> failwith "host crash") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int64) "restored after a raise" 777L cpu.Hw.Cpu.regs.(5);
  Tdx.Td_module.with_async_exit td cpu (fun () -> seen := cpu.Hw.Cpu.regs.(5));
  Alcotest.(check int64) "area free again" 0L !seen

(* ------------------------------------------------------------------ *)
(* Vmm devices                                                         *)
(* ------------------------------------------------------------------ *)

let test_device_dma_policy () =
  let mem, _, cpu, td = make_td () in
  let dev = Vmm.Device.create ~mem ~sept:(Tdx.Td_module.sept td) in
  Hw.Phys_mem.write_bytes mem (Hw.Phys_mem.addr_of_pfn 20) (Bytes.of_string "private!");
  (* Private frame: blocked. *)
  (match Vmm.Device.dma_read dev ~gpa:(Hw.Phys_mem.addr_of_pfn 20) ~len:8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "DMA read of private memory succeeded");
  (match Vmm.Device.dma_write dev ~gpa:(Hw.Phys_mem.addr_of_pfn 20) (Bytes.of_string "x") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "DMA write to private memory succeeded");
  Alcotest.(check int) "blocked twice" 2 (Vmm.Device.blocked_dma_count dev);
  (* Share the frame via tdcall, then DMA works. *)
  ignore (Tdx.Td_module.tdcall td cpu (Tdx.Ghci.Map_gpa { pfn = 20; shared = true }));
  (match Vmm.Device.dma_read dev ~gpa:(Hw.Phys_mem.addr_of_pfn 20) ~len:8 with
  | Ok b -> Alcotest.(check string) "reads shared" "private!" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  (* A range straddling a private frame is still blocked. *)
  match
    Vmm.Device.dma_read dev ~gpa:(Hw.Phys_mem.addr_of_pfn 20 + 4000) ~len:200
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "straddling DMA succeeded"

let test_host_cpuid_and_log () =
  let host = Vmm.Host.create () in
  Vmm.Host.set_cpuid host ~leaf:7 42L;
  (match Vmm.Host.handler host (Tdx.Ghci.Cpuid 7) with
  | Tdx.Td_module.Ok_int 42L -> ()
  | _ -> Alcotest.fail "configured cpuid");
  (match Vmm.Host.handler host (Tdx.Ghci.Cpuid 3) with
  | Tdx.Td_module.Ok_int _ -> ()
  | _ -> Alcotest.fail "default cpuid");
  ignore (Vmm.Host.handler host (Tdx.Ghci.Io_write { port = 80; data = Bytes.of_string "leaked-bytes" }));
  Alcotest.(check bool) "observed" true (Vmm.Host.observed_contains host "leaked-bytes");
  Alcotest.(check bool) "not observed" false (Vmm.Host.observed_contains host "absent");
  Alcotest.(check int) "vmcall log" 3 (Vmm.Host.vmcall_count host)

let test_host_interrupt_queue () =
  let host = Vmm.Host.create () in
  Alcotest.(check (option int)) "empty" None (Vmm.Host.pending_interrupt host);
  Vmm.Host.inject_external_interrupt host ~vector:34;
  Vmm.Host.inject_external_interrupt host ~vector:33;
  Alcotest.(check (option int)) "fifo peek" (Some 34) (Vmm.Host.pending_interrupt host);
  Alcotest.(check (option int)) "take" (Some 34) (Vmm.Host.take_interrupt host);
  Alcotest.(check (option int)) "next" (Some 33) (Vmm.Host.take_interrupt host);
  Alcotest.(check (option int)) "drained" None (Vmm.Host.take_interrupt host)

let () =
  Alcotest.run "tdx-vmm"
    [
      ( "sept",
        [
          Alcotest.test_case "default private" `Quick test_sept_default_private;
          Alcotest.test_case "convert" `Quick test_sept_convert;
        ] );
      ( "attest",
        [
          Alcotest.test_case "measurement chain" `Quick test_attest_measurement_chain;
          Alcotest.test_case "report verify" `Quick test_attest_report_verify;
          Alcotest.test_case "rtmr" `Quick test_attest_rtmr;
        ] );
      ( "td_module",
        [
          Alcotest.test_case "tdcall privileged" `Quick test_tdcall_privileged;
          Alcotest.test_case "report cost" `Quick test_tdcall_report_cost;
          Alcotest.test_case "vmcall scrubs context" `Quick test_tdcall_vmcall_scrubs;
          Alcotest.test_case "vmcall saves in place" `Quick test_tdcall_vmcall_alloc;
          Alcotest.test_case "vmcall exits do not nest" `Quick test_tdcall_vmcall_no_nesting;
          Alcotest.test_case "map_gpa" `Quick test_tdcall_map_gpa;
          Alcotest.test_case "measure finalization" `Quick test_measure_initial_finalizes;
          Alcotest.test_case "async exit scrub" `Quick test_async_exit_scrub;
        ] );
      ( "vmm",
        [
          Alcotest.test_case "device DMA policy" `Quick test_device_dma_policy;
          Alcotest.test_case "host cpuid/log" `Quick test_host_cpuid_and_log;
          Alcotest.test_case "interrupt queue" `Quick test_host_interrupt_queue;
        ] );
    ]
