(* Fleet deployment: everything §9.2 and §11 talk about in one place — a
   warm-start pool of sandboxes sharing one model instance, side-channel
   mitigations armed, serving a stream of clients over the attested channel.

   Every client request mints a trace context at the channel client; the
   context travels inside the sealed request header, so the collector can
   assemble a cross-machine causal tree (client segment + fleet segment)
   per request, and the run finishes with the request latency panel
   (p50/p95/p99 over every request the collector saw). With --audit FILE
   the monitor's security decisions are written as a hash-chained log that
   `erebor_sim audit verify` checks; with --record FILE the fleet
   machine's event stream is journaled for the `erebor_sim journal`
   subcommands.

   Run with:  dune exec examples/fleet.exe -- [--audit FILE] [--trace FILE]
                                              [--record FILE]
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

let trace_flag =
  C.flag ~docv:"FILE" [ "--trace" ]
    "Write the last request's cross-machine causal tree as a Chrome-trace \
     JSON file."

let record_flag =
  C.flag ~docv:"FILE" [ "--record" ]
    "Journal the fleet machine's event stream (flight recorder) for the \
     erebor_sim journal subcommands."

let main p =
  print_endline "Multi-tenant fleet: warm pool + shared model + mitigations";
  let audit_file = C.str p audit_flag in
  let trace_file = C.str p trace_flag in
  let record_file = C.str p record_flag in
  let mem = Hw.Phys_mem.create ~frames:131072 in
  let clock = Hw.Cycles.clock () in
  let now () = Hw.Cycles.now clock in

  (* Two emitters: the fleet machine's (carried by its CPU, where the
     monitor audits and emits spans) and one standing in for the remote
     client machine. A single collector watches both. *)
  let obs_fleet = Obs.Emitter.create () in
  let obs_client = Obs.Emitter.create () in
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
  let requests = Obs.Request.create () in
  Obs.Request.attach requests ~machine:"fleet" obs_fleet;
  Obs.Request.attach requests ~machine:"client" obs_client;
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
  let mismatches = ref 0 in
  let last_trace = ref 0 in
  let serve i prompt =
    (* The request window opens at the client: the minted context covers
       handshake, sealed request, fleet-side service, sealed response. *)
    let cx = Obs.Request.mint requests in
    last_trace := cx.Obs.Request.trace_id;
    let t_start = now () in
    Obs.Emitter.emit obs_client Obs.Trace.Req_begin ~ts:t_start
      ~arg:(Obs.Request.pack cx ~root:true);
    let client, server =
      Obs.with_span obs_client ~now Obs.Trace.Attest @@ fun () ->
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
    let sealed =
      Obs.with_span obs_client ~now Obs.Trace.Channel_crypto @@ fun () ->
      Erebor.Channel.Client.seal_request ~ctx:cx client (Bytes.of_string prompt)
    in
    (* Fleet side: opening the request emits Req_begin there, so the
       sandbox service lands inside the fleet segment of this trace. *)
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
    let answer =
      Obs.with_span obs_client ~now Obs.Trace.Channel_crypto @@ fun () ->
      Result.get_ok (Erebor.Channel.Client.open_response client response)
    in
    let t_end = now () in
    Obs.Emitter.emit obs_client Obs.Trace.Req_end ~ts:t_end
      ~arg:(Obs.Request.pack cx ~root:true);
    let measured = t_end - t_start in
    (* The collector's root segment must account for exactly the cycles we
       measured end to end — the tree is causal, not decorative. *)
    (match Obs.Request.root_cycles requests ~trace_id:cx.Obs.Request.trace_id with
    | Some c when c = measured -> ()
    | Some c ->
        Printf.eprintf "[client %d] trace %d root %d cycles <> measured %d\n" i
          cx.Obs.Request.trace_id c measured;
        incr mismatches
    | None ->
        Printf.eprintf "[client %d] trace %d: no root segment collected\n" i
          cx.Obs.Request.trace_id;
        incr mismatches);
    Printf.printf "[client %d] %-32s  (time-to-answer %.2f ms, warm=%b)\n" i
      (Bytes.to_string answer)
      (1000.0 *. Hw.Cycles.to_seconds measured)
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

  (* One request's cross-machine causal tree. *)
  Printf.printf "\n[fleet] causal tree of request %d (cross-machine):\n" !last_trace;
  Format.printf "%a@?" Obs.Request.pp_tree (requests, !last_trace);
  (match trace_file with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Obs.Request.to_chrome_json requests ~trace_id:!last_trace));
      Printf.printf "[fleet] chrome trace of request %d -> %s\n" !last_trace path
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

  (match journal with
  | Some (w, path) ->
      Printf.printf "[fleet] journal: %d events in %d segments -> %s\n"
        (Obs.Journal.Writer.events w)
        (Obs.Journal.Writer.segments w)
        path
  | None -> ());

  (* The closing panel: the end-to-end latency distribution the collector
     kept for every request. *)
  Printf.printf
    "\n[fleet] served %d requests, latency p50=%d p95=%d p99=%d cycles\n"
    (Obs.Request.completed requests)
    (Obs.Request.latency_percentile requests ~p:0.50)
    (Obs.Request.latency_percentile requests ~p:0.95)
    (Obs.Request.latency_percentile requests ~p:0.99);
  if !mismatches > 0 then begin
    Printf.eprintf "[fleet] %d request(s) with unaccounted cycles\n" !mismatches;
    exit 1
  end

let () =
  C.run ~prog:"fleet" ~default:"run"
    ~doc:"Warm-pool fleet example: attested channel, shared model, telemetry"
    [
      C.cmd ~name:"run"
        ~doc:"Serve five clients from a warm sandbox pool (the default)"
        ~flags:[ audit_flag; trace_flag; record_flag ]
        main;
    ]
