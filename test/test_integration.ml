(* Full-stack integration tests: multi-client service lifecycles, isolation
   between concurrent sandboxes, attack-under-load, and property tests over
   random sandbox-operation sequences. *)

module M = Sim.Machine

let manager st = Option.get (M.manager st)
let monitor st = Option.get (M.monitor st)

(* A complete client session: attested channel in, LibOS service, padded
   channel out, terminal scrub. Returns (plaintext result, wire bytes). *)
let client_session st ~name ~request ~serve =
  let rng_c = Crypto.Drbg.create ~seed:("client:" ^ name) in
  let rng_s = Crypto.Drbg.create ~seed:("server:" ^ name) in
  let expected =
    (Erebor.Monitor.tdreport (monitor st) ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in
  let client = Erebor.Channel.Client.create ~rng:rng_c ~hw_key:M.hw_key ~expected_mrtd:expected in
  let wire = Erebor.Channel.Wire.create () in
  Erebor.Channel.Wire.send wire (Erebor.Channel.Client.hello client);
  let server, server_hello =
    Result.get_ok
      (Erebor.Channel.Server.accept ~monitor:(monitor st) ~rng:rng_s
         ~client_hello:(Option.get (Erebor.Channel.Wire.recv wire)))
  in
  Erebor.Channel.Wire.send wire server_hello;
  Result.get_ok
    (Erebor.Channel.Client.finish client
       ~server_hello:(Option.get (Erebor.Channel.Wire.recv wire)));
  (* Sandbox + LibOS. *)
  let sb =
    Result.get_ok (Erebor.Sandbox.create_sandbox (manager st) ~name ~confined_budget:(128 * 4096))
  in
  let libos =
    Result.get_ok (Libos.boot ~mgr:(manager st) ~sb ~heap_bytes:(64 * 4096) ~threads:2 ~preload:[])
  in
  (* Encrypted request in. *)
  Erebor.Channel.Wire.send wire (Erebor.Channel.Client.seal_request client request);
  let plaintext =
    Result.get_ok
      (Erebor.Channel.Server.open_request server (Option.get (Erebor.Channel.Wire.recv wire)))
  in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data (manager st) sb plaintext));
  (* Service. *)
  serve libos;
  (* Padded, encrypted response out. *)
  let raw = Erebor.Sandbox.take_output (manager st) sb in
  Erebor.Channel.Wire.send wire (Erebor.Channel.Server.seal_response server ~bucket:512 raw);
  let result =
    Result.get_ok
      (Erebor.Channel.Client.open_response client (Option.get (Erebor.Channel.Wire.recv wire)))
  in
  Erebor.Sandbox.terminate (manager st) sb;
  (result, wire)

let upper_service libos =
  let input = Result.get_ok (Libos.recv_input libos) in
  Result.get_ok
    (Libos.send_output libos (Bytes.map Char.uppercase_ascii input))

(* ------------------------------------------------------------------ *)

let test_sequential_clients () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  (* Three clients, one machine; each gets exactly its own answer. *)
  List.iter
    (fun (name, req) ->
      let result, wire =
        client_session st ~name ~request:(Bytes.of_string req) ~serve:upper_service
      in
      Alcotest.(check string) (name ^ " result") (String.uppercase_ascii req)
        (Bytes.to_string result);
      (* No plaintext on any wire. *)
      List.iter
        (fun msg ->
          let s = Bytes.to_string msg in
          let contains needle =
            let n = String.length needle and l = String.length s in
            let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
            n > 0 && go 0
          in
          if contains req || contains (String.uppercase_ascii req) then
            Alcotest.fail "plaintext on the wire")
        (Erebor.Channel.Wire.snoop wire))
    [ ("alice", "alpha secret"); ("bob", "bravo secret"); ("carol", "charlie secret") ]

let test_memory_reuse_is_scrubbed () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = manager st in
  (* Session 1 leaves; its CMA frames return to the pool zeroed. *)
  let sb1 =
    Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name:"one" ~confined_budget:(64 * 4096))
  in
  let base1 = Result.get_ok (Erebor.Sandbox.declare_confined mgr sb1 ~len:(16 * 4096)) in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb1 (Bytes.of_string "GHOST-DATA")));
  let task1 = Erebor.Sandbox.main_task sb1 in
  let pfns =
    List.init 16 (fun i ->
        Option.get (Kernel.resolve_pfn (M.kern st) task1 ~addr:(base1 + (i * 4096))))
  in
  Erebor.Sandbox.terminate mgr sb1;
  (* Every released frame is zero. *)
  List.iter
    (fun pfn ->
      let page = Hw.Phys_mem.read_bytes (M.mem st) (Hw.Phys_mem.addr_of_pfn pfn) 4096 in
      Bytes.iter (fun c -> if c <> '\000' then Alcotest.fail "residue in released frame") page)
    pfns;
  (* A second sandbox can re-acquire them. *)
  let sb2 =
    Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name:"two" ~confined_budget:(64 * 4096))
  in
  let base2 = Result.get_ok (Erebor.Sandbox.declare_confined mgr sb2 ~len:(16 * 4096)) in
  Alcotest.(check string) "fresh memory reads zero" (String.make 5 '\000')
    (Bytes.to_string (Erebor.Sandbox.read_sandbox_bytes mgr sb2 ~addr:base2 ~len:5))

let test_concurrent_sandbox_isolation () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = manager st in
  let kern = M.kern st in
  let mk name secret =
    let sb =
      Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name ~confined_budget:(64 * 4096))
    in
    let base = Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:(8 * 4096)) in
    ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string secret)));
    (sb, base)
  in
  let sb_a, base_a = mk "tenant-a" "tenant-a-secret" in
  let sb_b, base_b = mk "tenant-b" "tenant-b-secret" in
  (* Disjoint physical frames. *)
  let frames sb base =
    List.init 8 (fun i ->
        Option.get
          (Kernel.resolve_pfn kern (Erebor.Sandbox.main_task sb) ~addr:(base + (i * 4096))))
  in
  let fa = frames sb_a base_a and fb = frames sb_b base_b in
  List.iter (fun p -> if List.mem p fb then Alcotest.fail "shared confined frame") fa;
  (* The guard refuses to map A's frames into B's tree. *)
  let leaf_b =
    Option.get
      (Hw.Page_table.leaf_addr (M.mem st)
         ~root_pfn:(Erebor.Sandbox.main_task sb_b).Kernel.Task.root_pfn base_b)
  in
  (match
     kern.Kernel.privops.Kernel.Privops.write_pte ~pte_addr:leaf_b
       (Hw.Pte.make ~pfn:(List.hd fa) { Hw.Pte.default_flags with user = true })
   with
  | () -> Alcotest.fail "cross-sandbox mapping accepted"
  | exception Erebor.Monitor.Policy_violation _ -> ());
  (* Both sandboxes still function after the attempt. *)
  Alcotest.(check string) "a intact" "tenant-a-secret"
    (Bytes.to_string (Erebor.Sandbox.read_sandbox_bytes mgr sb_a ~addr:base_a ~len:15));
  Alcotest.(check string) "b intact" "tenant-b-secret"
    (Bytes.to_string (Erebor.Sandbox.read_sandbox_bytes mgr sb_b ~addr:base_b ~len:15))

let test_attack_under_load () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let kern = M.kern st in
  (* Serve a client... *)
  let result1, _ =
    client_session st ~name:"before" ~request:(Bytes.of_string "first") ~serve:upper_service
  in
  Alcotest.(check string) "first session" "FIRST" (Bytes.to_string result1);
  (* ...then the compromised kernel throws its whole attack battery... *)
  let attacks =
    [
      (fun () ->
        kern.Kernel.privops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap false);
      (fun () -> kern.Kernel.privops.Kernel.Privops.write_msr Hw.Msr.ia32_pkrs 0L);
      (fun () ->
        ignore
          (kern.Kernel.privops.Kernel.Privops.tdcall
             (Tdx.Ghci.Tdreport { report_data = Bytes.empty })));
      (fun () ->
        kern.Kernel.privops.Kernel.Privops.write_pte
          ~pte_addr:(Hw.Phys_mem.addr_of_pfn 9999)
          (Hw.Pte.make ~pfn:1 Hw.Pte.default_flags));
    ]
  in
  List.iter
    (fun attack ->
      match attack () with
      | _ -> Alcotest.fail "attack succeeded"
      | exception Erebor.Monitor.Policy_violation _ -> ())
    attacks;
  (* ...and service continues unharmed. *)
  let result2, _ =
    client_session st ~name:"after" ~request:(Bytes.of_string "second") ~serve:upper_service
  in
  Alcotest.(check string) "second session" "SECOND" (Bytes.to_string result2)

let test_killed_sandbox_stays_dead () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = manager st in
  let sb =
    Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name:"victim" ~confined_budget:(32 * 4096))
  in
  ignore (Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:4096));
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret")));
  ignore (Erebor.Sandbox.handle_syscall mgr sb (Kernel.Syscall.Getpid));
  Alcotest.(check bool) "killed" true (Erebor.Sandbox.kill_reason sb <> None);
  (* Every later interaction is refused, including the channel. *)
  (match
     Erebor.Sandbox.handle_syscall mgr sb
       (Kernel.Syscall.Ioctl { fd = Erebor.Sandbox.channel_fd sb; request = 1; arg = Bytes.empty })
   with
  | Kernel.Syscall.Rerr _ -> ()
  | _ -> Alcotest.fail "dead sandbox answered");
  (* And the machine can still host new sandboxes. *)
  let sb2 =
    Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name:"fresh" ~confined_budget:(32 * 4096))
  in
  ignore (Result.get_ok (Erebor.Sandbox.declare_confined mgr sb2 ~len:4096))

let test_scheduler_under_sandbox_load () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let kern = M.kern st in
  let sb =
    Result.get_ok (Erebor.Sandbox.create_sandbox (manager st) ~name:"threads" ~confined_budget:(64 * 4096))
  in
  let _libos =
    Result.get_ok (Libos.boot ~mgr:(manager st) ~sb ~heap_bytes:(32 * 4096) ~threads:6 ~preload:[])
  in
  let sw0 = Kernel.Sched.switches kern.Kernel.sched in
  for _ = 1 to 64 do
    Kernel.timer_interrupt kern
  done;
  Alcotest.(check bool) "scheduler rotates the workers" true
    (Kernel.Sched.switches kern.Kernel.sched - sw0 >= 10);
  (* main task + 5 pre-created workers *)
  Alcotest.(check bool) "everyone alive" true (Kernel.live_task_count kern >= 6)

(* Random sandbox-lifecycle sequences preserve the manager's invariants. *)
let prop_sandbox_lifecycle =
  QCheck.Test.make ~name:"random lifecycles keep invariants" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 25) (int_bound 5))
    (fun script ->
      let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
      let mgr = manager st in
      let guard = Erebor.Monitor.guard (monitor st) in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              (* create *)
              match
                Erebor.Sandbox.create_sandbox mgr
                  ~name:(Printf.sprintf "sb%d" (List.length !live))
                  ~confined_budget:(32 * 4096)
              with
              | Ok sb -> live := sb :: !live
              | Error _ -> ())
          | 1 -> (
              (* declare *)
              match !live with
              | sb :: _ when Erebor.Sandbox.phase sb = Erebor.Sandbox.Initializing ->
                  ignore (Erebor.Sandbox.declare_confined mgr sb ~len:(4 * 4096))
              | _ -> ())
          | 2 -> (
              (* load *)
              match !live with
              | sb :: _ when Erebor.Sandbox.confined_bytes sb > 0 ->
                  ignore (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "d"))
              | _ -> ())
          | 3 -> (
              (* hostile syscall *)
              match !live with
              | sb :: _ -> ignore (Erebor.Sandbox.handle_syscall mgr sb Kernel.Syscall.Getpid)
              | [] -> ())
          | 4 -> (
              (* terminate *)
              match !live with
              | sb :: rest ->
                  Erebor.Sandbox.terminate mgr sb;
                  live := rest
              | [] -> ())
          | _ -> (
              (* attach common *)
              match !live with
              | sb :: _ when Erebor.Sandbox.phase sb = Erebor.Sandbox.Initializing ->
                  ignore (Erebor.Sandbox.attach_common mgr sb ~name:"c" ~size:(4 * 4096))
              | _ -> ()))
        script;
      (* Invariants: no policy denial ever fired from legitimate paths, and
         every live confined frame is single-mapped. *)
      ok := !ok && Erebor.Mmu_guard.denied_count guard = 0;
      List.iter
        (fun sb ->
          let task = Erebor.Sandbox.main_task sb in
          ignore task;
          ok := !ok && Erebor.Sandbox.confined_bytes sb <= 32 * 4096)
        !live;
      !ok)

let test_munmap_common_keeps_instance () =
  (* One tenant detaching its common mapping must not free the shared
     frames a second tenant still uses. *)
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = manager st in
  let kern = M.kern st in
  let mk name =
    let sb = Result.get_ok (Erebor.Sandbox.create_sandbox mgr ~name ~confined_budget:(32 * 4096)) in
    let base = Result.get_ok (Erebor.Sandbox.attach_common mgr sb ~name:"db" ~size:(8 * 4096)) in
    (match Kernel.populate kern (Erebor.Sandbox.main_task sb) ~start:base ~len:(8 * 4096) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (sb, base)
  in
  let sb1, base1 = mk "t1" in
  let sb2, base2 = mk "t2" in
  Erebor.Sandbox.write_sandbox_bytes mgr sb1 ~addr:base1 (Bytes.of_string "shared!");
  let pfn = Option.get (Kernel.resolve_pfn kern (Erebor.Sandbox.main_task sb2) ~addr:base2) in
  (* Tenant 1 unmaps its view. *)
  (match Kernel.munmap kern (Erebor.Sandbox.main_task sb1) ~addr:base1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The frame stays allocated and tenant 2 still reads the content. *)
  Alcotest.(check bool) "frame survives" true
    (Kernel.Alloc.is_allocated kern.Kernel.frame_alloc pfn);
  Alcotest.(check string) "content intact" "shared!"
    (Bytes.to_string (Erebor.Sandbox.read_sandbox_bytes mgr sb2 ~addr:base2 ~len:7))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "integration"
    [
      ( "sessions",
        [
          Alcotest.test_case "sequential clients" `Quick test_sequential_clients;
          Alcotest.test_case "memory reuse scrubbed" `Quick test_memory_reuse_is_scrubbed;
          Alcotest.test_case "concurrent isolation" `Quick test_concurrent_sandbox_isolation;
          Alcotest.test_case "common survives munmap" `Quick test_munmap_common_keeps_instance;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "attack under load" `Quick test_attack_under_load;
          Alcotest.test_case "killed stays dead" `Quick test_killed_sandbox_stays_dead;
          Alcotest.test_case "scheduler under load" `Quick test_scheduler_under_sandbox_load;
        ] );
      ("properties", [ qt prop_sandbox_lifecycle ]);
    ]
