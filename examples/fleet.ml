(* Fleet deployment: everything §9.2 and §11 talk about in one place — a
   warm-start pool of sandboxes sharing one model instance, side-channel
   mitigations armed, serving a stream of clients over the attested channel.

   Each client session is timed on the virtual clock from handshake to
   opened response, and the run finishes with the latency panel
   (p50/p95/p99 over every session). With --audit FILE the monitor's
   security decisions are written as a hash-chained log that
   `erebor_sim audit verify` checks; with --record FILE the fleet
   machine's event stream, session markers included, is journaled for the
   `erebor_sim journal` subcommands, and the example replays it: the
   critical-path analysis must find one window per session whose total is
   exactly the measured cycles, or the example exits 1.

   Run with:  dune exec examples/fleet.exe -- [--audit FILE] [--record FILE]
*)

module C = Workloads.Cli

let hw_key = Crypto.Sha256.digest_string "example hardware key"

(* Same derivation as bin/erebor_sim.ml, so `erebor_sim audit verify`
   accepts the chain this example writes. *)
let audit_key = Crypto.Sha256.digest_string "erebor-sim audit key"

let kernel_image =
  {
    Hw.Image.entry = 0x1000;
    sections =
      [
        { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true; writable = false;
          data = Hw.Isa.assemble [ Hw.Isa.Endbr; Hw.Isa.Ret ] };
      ];
  }

let audit_flag =
  C.flag ~docv:"FILE" [ "--audit" ]
    "Record every monitor security decision in a hash-chained audit log \
     and write it (JSONL) on exit; check offline with audit verify."

let record_flag =
  C.flag ~docv:"FILE" [ "--record" ]
    "Journal the fleet machine's event stream (flight recorder) for the \
     erebor_sim journal subcommands."

let main p =
  print_endline "Multi-tenant fleet: warm pool + shared model + mitigations";
  let audit_file = C.str p audit_flag in
  let record_file = C.str p record_flag in
  let mem = Hw.Phys_mem.create ~frames:131072 in
  let clock = Hw.Cycles.clock () in
  let now () = Hw.Cycles.now clock in

  (* The fleet machine's emitter, carried by its CPU: the monitor audits
     and emits spans on it, and the session markers ride it too. *)
  let obs_fleet = Obs.Emitter.create () in
  (* The journal writer attaches first so it records boot too. *)
  let journal =
    match record_file with
    | None -> None
    | Some path ->
        let w =
          Obs.Journal.Writer.create ~meta:[ ("example", "fleet") ] ~path ()
        in
        Obs.Journal.Writer.attach ~machine:"fleet" w obs_fleet;
        Some (w, path)
  in
  (match audit_file with
  | Some _ ->
      Obs.Emitter.set_audit obs_fleet
        (Some (Obs.Audit.create ~key:audit_key))
  | None -> ());

  let cpu =
    Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:2_000_000 ~obs:obs_fleet ()
  in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let monitor =
    Erebor.Monitor.install ~cpu ~mem ~td ~firmware:(Bytes.of_string "OVMF")
      ~monitor_frames:32 ~device_shared_frames:32 ()
  in
  let kern =
    Result.get_ok
      (Erebor.Monitor.boot_kernel monitor ~kernel_image ~reserved_frames:128
         ~cma_frames:32768)
  in
  let mgr = Erebor.Sandbox.create_manager ~monitor ~kern in

  (* Harden every sandbox exit (§11). *)
  Erebor.Sandbox.set_mitigations mgr Erebor.Mitigations.paranoid;
  print_endline "[fleet] mitigations armed: rate limit + quantized output + flush";

  (* Pre-warm four ready sandboxes (§9.2 warm start). *)
  let t0 = now () in
  let pool =
    Result.get_ok
      (Sim.Pool.create ~mgr ~name_prefix:"tenant" ~heap_bytes:(256 * 4096) ~threads:4
         ~size:4 ())
  in
  Printf.printf "[fleet] pre-warmed 4 sandboxes in %.2f ms of guest time\n"
    (1000.0 *. Hw.Cycles.to_seconds (now () - t0));

  let expected_mrtd =
    (Erebor.Monitor.tdreport monitor ~report_data:Bytes.empty).Tdx.Attest.mrtd
  in

  (* One shared model instance across the whole fleet. *)
  let model_bytes = 2048 * 4096 in
  let measured = ref [] in
  let serve i prompt =
    (* Session [i]'s window opens at the client and covers handshake,
       sealed request, fleet-side service and opened response. *)
    let t_start = now () in
    Obs.Emitter.emit obs_fleet Obs.Trace.Req_begin ~ts:t_start ~arg:i;
    let client, server =
      let rng_c = Crypto.Drbg.create ~seed:(Printf.sprintf "client:%d" i) in
      let rng_s = Crypto.Drbg.create ~seed:(Printf.sprintf "monitor:%d" i) in
      let client =
        Erebor.Channel.Client.create ~rng:rng_c ~hw_key ~expected_mrtd
      in
      let hello = Erebor.Channel.Client.hello client in
      let server, server_hello =
        Result.get_ok
          (Erebor.Channel.Server.accept ~monitor ~rng:rng_s ~client_hello:hello)
      in
      Result.get_ok (Erebor.Channel.Client.finish client ~server_hello);
      (client, server)
    in
    let sealed = Erebor.Channel.Client.seal_request client (Bytes.of_string prompt) in
    let plaintext = Result.get_ok (Erebor.Channel.Server.open_request server sealed) in
    let entry = Result.get_ok (Sim.Pool.acquire pool) in
    let sb = entry.Sim.Pool.sb and libos = entry.Sim.Pool.libos in
    let model_base =
      Result.get_ok (Erebor.Sandbox.attach_common mgr sb ~name:"model" ~size:model_bytes)
    in
    (* The tenant streams part of the model: frames materialize once and are
       shared by everyone after. *)
    (match
       Kernel.populate kern (Erebor.Sandbox.main_task sb) ~start:model_base
         ~len:(64 * 4096)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb plaintext));
    let input = Result.get_ok (Libos.recv_input libos) in
    Result.get_ok
      (Libos.send_output libos
         (Bytes.of_string (Printf.sprintf "tenant-%d processed %d bytes" i (Bytes.length input))));
    let answer = Erebor.Sandbox.take_output mgr sb in
    Erebor.Sandbox.terminate mgr sb;
    let response = Erebor.Channel.Server.seal_response server ~bucket:256 answer in
    let answer = Result.get_ok (Erebor.Channel.Client.open_response client response) in
    let t_end = now () in
    Obs.Emitter.emit obs_fleet Obs.Trace.Req_end ~ts:t_end ~arg:i;
    measured := (i, t_end - t_start) :: !measured;
    Printf.printf "[client %d] %-32s  (time-to-answer %.2f ms, warm=%b)\n" i
      (Bytes.to_string answer)
      (1000.0 *. Hw.Cycles.to_seconds (t_end - t_start))
      (Sim.Pool.cold_boots pool = 0 || i <= 4)
  in
  List.iteri (fun i prompt -> serve (i + 1) prompt)
    [ "analyze my records"; "translate this"; "classify these logs";
      "summarize the report"; "one more than the pool held" ];
  Printf.printf "[fleet] warm hits: %d, cold boots: %d\n" (Sim.Pool.warm_hits pool)
    (Sim.Pool.cold_boots pool);
  Printf.printf "[fleet] model frames shared across tenants: %d\n"
    (Erebor.Sandbox.common_instance_frames mgr ~name:"model");
  (match Erebor.Sandbox.mitigation_stats mgr with
  | Some (stalls, stall_cycles, flushes) ->
      Printf.printf "[fleet] mitigation activity: %d stalls (%d cycles), %d flushes\n"
        stalls stall_cycles flushes
  | None -> ());

  (* Flush sinks and close the audit chain (mandatory close record); the
     emitter finalizer also seals and closes the journal, if any. *)
  Obs.Emitter.finalize obs_fleet ~now:(now ());
  (match (audit_file, Obs.Emitter.audit obs_fleet) with
  | Some path, Some chain ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Obs.Audit.to_string chain));
      Printf.printf "[fleet] audit log: %d records (chained, finalized) -> %s\n"
        (Obs.Audit.length chain) path
  | _ -> ());

  (* Replay the journal: the critical-path analysis must find exactly one
     window per session, each accounting for exactly the cycles measured
     end to end — the markers are causal, not decorative. *)
  let sessions = List.length !measured in
  let accounted =
    match journal with
    | None -> true
    | Some (w, path) -> (
        Printf.printf "[fleet] journal: %d events in %d segments -> %s\n"
          (Obs.Journal.Writer.events w)
          (Obs.Journal.Writer.segments w)
          path;
        match Obs.Critical.analyze ~top:sessions ~path () with
        | Error e ->
            Printf.eprintf "[fleet] journal replay failed: %s\n" e;
            false
        | Ok (rep, _) ->
            Printf.printf
              "[fleet] journal critical path: %d session windows, service %d / \
               queueing %d cycles\n"
              rep.Obs.Critical.n rep.Obs.Critical.total_service
              rep.Obs.Critical.total_queueing;
            let windows =
              List.map
                (fun (r : Obs.Critical.request) -> (r.Obs.Critical.id, r.Obs.Critical.total))
                rep.Obs.Critical.requests
            in
            let show l =
              String.concat " " (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) l)
            in
            let ok =
              rep.Obs.Critical.n = sessions
              && List.sort compare windows = List.sort compare !measured
            in
            if not ok then
              Printf.eprintf "[fleet] session windows [%s] <> measured [%s]\n"
                (show (List.sort compare windows))
                (show (List.sort compare !measured));
            ok)
  in

  (* The closing panel: the end-to-end latency distribution over every
     session, measured on the virtual clock. *)
  let latencies = Array.of_list (List.map snd !measured) in
  Array.sort compare latencies;
  let pct p = Obs.Histogram.nearest_rank latencies ~p in
  Printf.printf
    "\n[fleet] served %d requests, latency p50=%d p95=%d p99=%d cycles\n"
    sessions (pct 0.50) (pct 0.95) (pct 0.99);
  if not accounted then exit 1

let () =
  C.run ~prog:"fleet" ~default:"run"
    ~doc:"Warm-pool fleet example: attested channel, shared model, telemetry"
    [
      C.cmd ~name:"run"
        ~doc:"Serve five clients from a warm sandbox pool (the default)"
        ~flags:[ audit_flag; record_flag ]
        main;
    ]
