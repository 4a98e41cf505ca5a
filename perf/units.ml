(* Per-layer unit costs: a timed loop over one public call per layer. Each
   row warms up once, then reports the median of five batches as host ns
   and minor-heap words per call. *)

type row = { name : string; ns : float; words : float }

let batches = 5

(* [Gc.minor_words] boxes its own result; calibrate that out so a
   zero-allocation call reads 0. *)
let probe_words () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let time name ~iters f =
  for _ = 1 to iters do f () done;
  let probe = probe_words () in
  let one () =
    let w0 = Gc.minor_words () in
    let t0 = Tracer.now () in
    for _ = 1 to iters do f () done;
    let t1 = Tracer.now () in
    let w1 = Gc.minor_words () in
    (float_of_int (t1 - t0) /. float_of_int iters, (w1 -. w0 -. probe) /. float_of_int iters)
  in
  let samples = List.init batches (fun _ -> one ()) in
  {
    name;
    ns = Stats.median (List.map fst samples);
    words = Float.max 0.0 (Stats.median (List.map snd samples));
  }

let monitor_of m =
  Erebor.Sandbox.manager_monitor (Option.get (Sim.Machine.manager m))

(* A CPU with one mapped page, its translation warm in the TLB. *)
let translate_row () =
  let mem = Hw.Phys_mem.create ~frames:64 in
  let cpu =
    Hw.Cpu.create ~id:0 ~mem ~clock:(Hw.Cycles.clock ()) ~timer_period:1_000_000 ()
  in
  let next = ref 1 in
  let alloc_ptp () = incr next; !next - 1 in
  let root = alloc_ptp () in
  Hw.Cpu.write_cr3 cpu ~root_pfn:root;
  let vaddr = 0x40_0000 in
  Hw.Page_table.map mem
    ~write_pte:(fun ~pte_addr pte -> Hw.Phys_mem.write_u64 mem pte_addr pte)
    ~alloc_ptp ~root_pfn:root ~vaddr
    (Hw.Pte.make ~pfn:32 Hw.Pte.default_flags);
  time "hw.translate" ~iters:1_000_000 (fun () ->
      ignore (Hw.Cpu.translate cpu ~kind:Hw.Fault.Read vaddr))

(* The monitor's gate listing: the sequence every EMC round trip retires. *)
let icode_row gate =
  let prog =
    match Hw.Icode.of_bytes (Erebor.Gate.code_bytes gate) with
    | Ok p -> p
    | Error off -> failwith (Printf.sprintf "gate listing undecodable at +%d" off)
  in
  let st = Hw.Icode.make_state () in
  time "hw.icode_run" ~iters:200_000 (fun () ->
      ignore (Hw.Icode.run prog st ~entry:0 ~fuel:64))

(* A monitor of our own, so the client knows the hardware key that verifies
   its report, and one attested session over it. *)
let channel_row () =
  let hw_key = Crypto.Sha256.digest_string "perf hardware key" in
  let mem = Hw.Phys_mem.create ~frames:4096 in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:1_000_000 () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler (Vmm.Host.create ()));
  let monitor =
    Erebor.Monitor.install ~cpu ~mem ~td ~firmware:(Bytes.of_string "perf firmware")
      ~monitor_frames:32 ~device_shared_frames:32 ()
  in
  let expected = (Erebor.Monitor.tdreport monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd in
  let client =
    Erebor.Channel.Client.create ~rng:(Crypto.Drbg.create ~seed:"perf client") ~hw_key
      ~expected_mrtd:expected
  in
  let server, server_hello =
    match
      Erebor.Channel.Server.accept ~monitor ~rng:(Crypto.Drbg.create ~seed:"perf server")
        ~client_hello:(Erebor.Channel.Client.hello client)
    with
    | Ok pair -> pair
    | Error e -> failwith e
  in
  (match Erebor.Channel.Client.finish client ~server_hello with
  | Ok () -> ()
  | Error e -> failwith e);
  let page = Bytes.make 4096 'p' in
  time "erebor.channel_4k" ~iters:200 (fun () ->
      match
        Erebor.Channel.Server.open_request server
          (Erebor.Channel.Client.seal_request client page)
      with
      | Ok _ -> ()
      | Error e -> failwith e)

let rows ~tmp () =
  let full = Sim.Machine.create ~frames:16384 ~cma_frames:1024 ~setting:Sim.Config.Erebor_full () in
  let native = Sim.Machine.create ~frames:16384 ~cma_frames:1024 ~setting:Sim.Config.Native () in
  let gate = Erebor.Monitor.gate (monitor_of full) in
  let full_kern = Sim.Machine.kern full in
  let pte_addr = Hw.Phys_mem.addr_of_pfn full_kern.Kernel.kernel_root + (8 * 200) in
  let kern = Sim.Machine.kern native in
  let task = Kernel.create_task kern ~name:"perf" ~kind:Kernel.Task.Normal in
  let kib = Bytes.make 1024 'k' in
  let key = Bytes.make Crypto.Chacha20.key_size 'c' in
  let nonce = Bytes.make Crypto.Chacha20.nonce_size 'n' in
  let journal_path = Filename.concat tmp (Printf.sprintf "units-%d.ejrn" (Unix.getpid ())) in
  let journal = Obs.Journal.Writer.create ~path:journal_path () in
  let stream = Obs.Journal.Writer.stream journal ~machine:"perf" in
  let sketch = Obs.Sketch.create () in
  let window = Obs.Window.create ~width:10_500_000 ~buckets:120 () in
  let i = ref 0 in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Obs.Journal.Writer.close journal ~now:!i;
        try Sys.remove journal_path with Sys_error _ -> ())
      (fun () ->
        [
          translate_row ();
          icode_row gate;
          time "erebor.gate_call" ~iters:100_000 (fun () -> Erebor.Gate.call gate ignore);
          time "erebor.write_pte" ~iters:50_000 (fun () ->
              full_kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty);
          time "kernel.getpid" ~iters:200_000 (fun () ->
              ignore (Kernel.syscall kern task Kernel.Syscall.Getpid));
          time "tdx.tdcall" ~iters:50_000 (fun () ->
              ignore (kern.Kernel.privops.Kernel.Privops.tdcall (Tdx.Ghci.Vmcall Tdx.Ghci.Hlt)));
          channel_row ();
          time "crypto.sha256_1k" ~iters:1_000 (fun () ->
              ignore (Crypto.Sha256.digest_bytes kib));
          time "crypto.chacha20_1k" ~iters:4_000 (fun () ->
              ignore (Crypto.Chacha20.xor ~key ~nonce kib));
          time "obs.journal_record" ~iters:1_000_000 (fun () ->
              incr i;
              Obs.Journal.Writer.record journal ~stream Obs.Trace.Page_fault ~ts:!i
                ~arg:(!i land 4095 * 64));
          time "obs.sketch_record" ~iters:1_000_000 (fun () ->
              incr i;
              Obs.Sketch.record sketch (!i land 0xFFFF));
          time "obs.window_record" ~iters:1_000_000 (fun () ->
              incr i;
              Obs.Window.record window Obs.Trace.Emc_entry ~ts:(!i * 64) ~arg:1224);
        ])
  in
  assert (List.map (fun r -> r.name) rows = Metrics.unit_rows);
  rows
