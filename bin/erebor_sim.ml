(* erebor-sim: the command-line front end to the simulated Erebor CVM —
   the counterpart of the artifact's run scripts (§A.4). Parsing is the
   declarative Workloads.Cli subcommand framework (no cmdliner): every
   subcommand carries its flag list, and an unknown flag prints the usage
   of exactly the subcommand it occurred under. *)

module C = Workloads.Cli

let workloads = Workloads.Eval.all_programs

let setting_of p s =
  match Sim.Config.of_name s with
  | Some setting -> setting
  | None ->
      C.fail p
        (Printf.sprintf "unknown setting %S (expected one of: %s)" s
           (String.concat ", " (List.map Sim.Config.name Sim.Config.all)))

let workload_of p s =
  match List.assoc_opt s workloads with
  | Some spec -> (s, spec)
  | None ->
      C.fail p
        (Printf.sprintf "unknown workload %S (expected one of: %s)" s
           (String.concat ", " (List.map fst workloads)))

(* Shared flags. *)
let workload_flag =
  C.flag ~docv:"NAME" [ "-w"; "--workload" ] "Workload to run (see list)."

let setting_flag =
  C.flag ~docv:"SETTING" [ "-s"; "--setting" ]
    "Evaluation setting: native, libos-only, erebor-mmu, erebor-exit, erebor."

let get_workload p =
  match C.str p workload_flag with
  | Some s -> workload_of p s
  | None -> C.fail p "a workload is required (-w NAME; see the list command)"

let get_setting p =
  match C.str p setting_flag with
  | None -> Sim.Config.Erebor_full
  | Some s -> setting_of p s

(* The audit chain's MAC key. A real deployment would derive this from a
   sealed monitor secret; the simulator uses a fixed derivation shared with
   [audit verify] so chains written by [run --audit] verify offline (the
   same substitution DESIGN.md makes for the attestation hw_key). *)
let audit_key = Crypto.Sha256.digest_string "erebor-sim audit key"

(* Every output file is opened (or, for the journal, created) before any
   work, so an unwritable path fails at once, with exit 1, rather than
   after a whole run or replay. [Sys_error] reads "PATH: REASON". *)
let cannot_write path e =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix e then
      String.sub e (String.length prefix) (String.length e - String.length prefix)
    else e
  in
  Printf.eprintf "erebor-sim: cannot write %s: %s\n" path reason;
  exit 1

(* The file an output flag names, if any, opened now: [(path, channel)]. *)
let output_file p flag =
  Option.map
    (fun path ->
      (path, try open_out path with Sys_error e -> cannot_write path e))
    (C.str p flag)

let print_run name setting (r : Sim.Machine.run_result) =
  Printf.printf "workload : %s\n" name;
  Printf.printf "setting  : %s\n" (Sim.Config.name setting);
  Printf.printf "exec time: %.2f s (virtual, descaled)\n"
    (Hw.Cycles.to_seconds r.Sim.Machine.run_cycles
    *. float_of_int Workloads.Workload.time_scale);
  Printf.printf "init time: %.2f s\n"
    (Hw.Cycles.to_seconds r.Sim.Machine.init_cycles
    *. float_of_int Workloads.Workload.time_scale);
  let s = r.Sim.Machine.stats in
  Printf.printf "exits    : #PF %.0f/s, #Timer %.0f/s, #VE %.0f/s, EMC %.1fk/s\n"
    (Sim.Stats.pf_rate s) (Sim.Stats.timer_rate s) (Sim.Stats.ve_rate s)
    (Sim.Stats.emc_rate s /. 1000.0);
  (match r.Sim.Machine.killed with
  | Some reason -> Printf.printf "KILLED   : %s\n" reason
  | None -> ());
  Printf.printf "output   : %d bytes (%d on the wire)\n---\n%s\n"
    (Bytes.length r.Sim.Machine.output)
    r.Sim.Machine.wire_output_len
    (Bytes.to_string r.Sim.Machine.output)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let debug_flag =
  C.flag [ "--debug" ]
    "Keep a ring buffer of the most recent trace events and dump it to \
     stderr post mortem when the run dies on an unexpected fault or the \
     sandbox is killed."

let audit_flag =
  C.flag ~docv:"FILE" [ "--audit" ]
    "Record every monitor security decision in an HMAC-SHA256 hash-chained \
     audit log and write it (JSONL) on exit — normal or abnormal. Check it \
     offline with audit verify."

let record_flag =
  C.flag ~docv:"FILE" [ "--record" ]
    "Flight recorder: journal every trace event (boot included) to a \
     crash-safe binary file. Analyze offline with the journal subcommands."

let run_body p =
  let name, spec_fn = get_workload p in
  let setting = get_setting p in
  let debug = C.has p debug_flag in
  let record = C.str p record_flag in
  let audit_oc = output_file p audit_flag in
  if (not debug) && Option.is_none audit_oc && Option.is_none record then
    print_run name setting (Sim.Machine.run_fresh ~setting (spec_fn ()))
  else begin
    let obs = Obs.Emitter.create () in
    (* The journal writer attaches before anything else so boot events land
       in the recording; its finalizer seals and closes the file on both
       exit paths. *)
    let journal =
      match record with
      | None -> None
      | Some path ->
          let w =
            try
              Obs.Journal.Writer.create
                ~meta:
                  [ ("workload", name); ("setting", Sim.Config.name setting) ]
                ~path ()
            with Sys_error e -> cannot_write path e
          in
          Obs.Journal.Writer.attach ~machine:"sim" w obs;
          Some (w, path)
    in
    let ring =
      if debug then Some (Obs.Ring.attach obs (Obs.Ring.create ~capacity:512))
      else None
    in
    let chain =
      match audit_oc with
      | None -> None
      | Some _ ->
          let chain = Obs.Audit.create ~key:audit_key in
          Obs.Emitter.set_audit obs (Some chain);
          Some chain
    in
    let m = Sim.Machine.create ~obs ~setting () in
    let dump_ring reason =
      match ring with
      | None -> ()
      | Some ring ->
          Printf.eprintf
            "post-mortem (%s): last %d trace events (%d older dropped):\n"
            reason (Obs.Ring.length ring) (Obs.Ring.dropped ring);
          List.iter
            (fun e -> Format.eprintf "  %a@." Obs.Trace.pp_event e)
            (Obs.Ring.to_list ring)
    in
    (* Flush every export that has buffered state — the finalized audit
       chain, the sealed journal — on BOTH exit paths, so an abnormal exit
       never drops a partially-written export. *)
    let flush_exports () =
      Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m));
      (match journal with
      | Some (w, path) ->
          Printf.printf "journal  : %d events in %d segments -> %s\n"
            (Obs.Journal.Writer.events w)
            (Obs.Journal.Writer.segments w)
            path
      | None -> ());
      match (audit_oc, chain) with
      | Some (path, oc), Some chain ->
          output_string oc (Obs.Audit.to_string chain);
          close_out oc;
          Printf.printf "audit    : %d records (chained, finalized) -> %s\n"
            (Obs.Audit.length chain) path
      | _ -> ()
    in
    match Sim.Machine.run m (spec_fn ()) with
    | r ->
        print_run name setting r;
        flush_exports ();
        (match r.Sim.Machine.killed with
        | Some reason when debug -> dump_ring ("sandbox killed: " ^ reason)
        | _ -> ())
    | exception e ->
        dump_ring (Printexc.to_string e);
        flush_exports ();
        Printf.eprintf "run aborted: %s\n" (Printexc.to_string e);
        exit 2
  end

let run_cmd =
  C.cmd ~name:"run"
    ~doc:"Run one workload under one setting and print its results"
    ~flags:[ workload_flag; setting_flag; debug_flag; audit_flag; record_flag ]
    run_body

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_body p =
  let name, spec_fn = get_workload p in
  let setting = get_setting p in
  let obs = Obs.Emitter.create () in
  let counters = Obs.Counter.attach obs (Obs.Counter.create ()) in
  let attrib = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
  let m = Sim.Machine.create ~obs ~setting () in
  let r = Sim.Machine.run m (spec_fn ()) in
  let total = Hw.Cycles.now (Sim.Machine.clock m) in
  Obs.Attrib.close attrib ~now:total;
  Printf.printf "profile  : %s under %s (%d virtual cycles total)\n" name
    (Sim.Config.name setting) total;
  Printf.printf "  %-16s %10s %14s\n" "kind" "count" "cycles";
  (* Cycle attribution: measured kinds carry their cycles as the event
     argument; fixed-cost kinds are count x calibrated cost. EMC service
     cycles are nested inside their gate round trips. *)
  let attributed kind n =
    match kind with
    | Obs.Trace.Emc_entry | Obs.Trace.Emc _ | Obs.Trace.Tdcall | Obs.Trace.Vmcall
      ->
        Some (Obs.Counter.arg_sum counters kind)
    | Obs.Trace.Syscall -> Some (n * Hw.Cycles.Cost.syscall_roundtrip)
    | Obs.Trace.Page_fault -> Some (n * Hw.Cycles.Cost.page_fault_base)
    | Obs.Trace.Timer_irq -> Some (n * Hw.Cycles.Cost.interrupt_delivery)
    | Obs.Trace.Ve_exit -> Some (n * Hw.Cycles.Cost.ve_handling)
    | Obs.Trace.Context_switch -> Some (n * Hw.Cycles.Cost.context_switch)
    | _ -> None
  in
  List.iter
    (fun kind ->
      let n = Obs.Counter.count counters kind in
      match kind with
      | Obs.Trace.Span_begin _ | Obs.Trace.Span_end _ -> ()
      | _ when n = 0 -> ()
      | _ -> (
          match attributed kind n with
          | Some cycles ->
              Printf.printf "  %-16s %10d %14d\n" (Obs.Trace.name kind) n cycles
          | None ->
              Printf.printf "  %-16s %10d %14s\n" (Obs.Trace.name kind) n "-"))
    Obs.Trace.all;
  (* Exact span-based decomposition: every virtual cycle lands in exactly
     one domain x phase context (or "outside" for pre/post-span glue). *)
  Printf.printf "attribution (domain x phase, sums exactly to total):\n";
  Printf.printf "  %-8s %-10s %14s %8s\n" "domain" "phase" "cycles" "share";
  List.iter
    (fun (d, p, cycles) ->
      Printf.printf "  %-8s %-10s %14d %7.2f%%\n" (Obs.Trace.domain_name d)
        (Obs.Trace.phase_name p) cycles
        (100.0 *. float_of_int cycles /. float_of_int total))
    (Obs.Attrib.breakdown attrib);
  Printf.printf "  %-8s %-10s %14d %7.2f%%\n" "-" "(outside)"
    (Obs.Attrib.unattributed attrib)
    (100.0
    *. float_of_int (Obs.Attrib.unattributed attrib)
    /. float_of_int total);
  match r.Sim.Machine.killed with
  | Some reason -> Printf.printf "KILLED   : %s\n" reason
  | None -> ()

let profile_cmd =
  C.cmd ~name:"profile"
    ~doc:
      "Run one workload and print per-event-kind counts plus the exact \
       domain x phase cycle decomposition"
    ~flags:[ workload_flag; setting_flag ]
    profile_body

(* ------------------------------------------------------------------ *)
(* compare / list / selfcheck                                          *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  C.cmd ~name:"compare"
    ~doc:
      "Run one workload under every setting: overheads over native, exit \
       rates, output size (Fig. 9 and Table 6 for one program)"
    ~flags:[ workload_flag ]
    (fun p ->
      let name, spec_fn = get_workload p in
      Printf.printf "%s across all settings:\n" name;
      Printf.printf "  %-12s %9s %8s %7s %6s %6s %6s %10s %7s  %s\n" "setting"
        "run" "ovh" "init" "#PF/s" "#T/s" "#VE/s" "EMC" "out" "killed";
      let runs =
        List.map
          (fun setting -> (setting, Sim.Machine.run_fresh ~setting (spec_fn ())))
          Sim.Config.all
      in
      let base = List.assoc Sim.Config.Native runs in
      List.iter
        (fun (setting, (r : Sim.Machine.run_result)) ->
          let ovh (f : Sim.Machine.run_result -> int) =
            100.0 *. ((float_of_int (f r) /. float_of_int (f base)) -. 1.0)
          in
          let s = r.Sim.Machine.stats in
          Printf.printf
            "  %-12s %8.2fs %+7.2f%% %+6.1f%% %6.0f %6.0f %6.0f %6.1fk/s %6dB  %s\n"
            (Sim.Config.name setting)
            (Hw.Cycles.to_seconds r.Sim.Machine.run_cycles
            *. float_of_int Workloads.Workload.time_scale)
            (ovh (fun r -> r.Sim.Machine.run_cycles))
            (ovh (fun r -> r.Sim.Machine.init_cycles))
            (Sim.Stats.pf_rate s) (Sim.Stats.timer_rate s) (Sim.Stats.ve_rate s)
            (Sim.Stats.emc_rate s /. 1000.0)
            (Bytes.length r.Sim.Machine.output)
            (Option.value ~default:"-" r.Sim.Machine.killed))
        runs)

let list_cmd =
  C.cmd ~name:"list" ~doc:"List workloads and settings" (fun _ ->
      print_endline "workloads:";
      List.iter (fun (name, _) -> Printf.printf "  %s\n" name) workloads;
      print_endline "settings:";
      List.iter (fun s -> Printf.printf "  %s\n" (Sim.Config.name s))
        Sim.Config.all)

let selfcheck_cmd =
  C.cmd ~name:"selfcheck"
    ~doc:"Run the security-claim battery (C1-C8) on a fresh stack"
    (fun _ ->
      (* An operator-facing rendition of §8's security analysis: build a
         fresh stack, throw the attack battery, report per-claim verdicts. *)
      let obs = Obs.Emitter.create () in
      Obs.Emitter.set_audit obs (Some (Obs.Audit.create ~key:audit_key));
      let attrib = Obs.Attrib.attach obs (Obs.Attrib.create ()) in
      let st =
        Sim.Machine.create ~obs ~frames:32768 ~cma_frames:8192
          ~setting:Sim.Config.Erebor_full ()
      in
      let monitor = Option.get (Sim.Machine.monitor st) in
      let mgr = Option.get (Sim.Machine.manager st) in
      let kern = Sim.Machine.kern st and cpu = Sim.Machine.cpu st in
      let failures = ref 0 and violations = ref 0 in
      let claim name expect_blocked f =
        let blocked =
          match f () with
          | _ -> false
          | exception Erebor.Monitor.Policy_violation _ ->
              incr violations;
              true
          | exception Hw.Fault.Fault _ -> true
        in
        let ok = blocked = expect_blocked in
        if not ok then incr failures;
        Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name
      in
      print_endline "C1: verified boot";
      let evil =
        { Hw.Image.entry = 0x1000;
          sections =
            [ { Hw.Image.name = ".text"; vaddr = 0x1000; executable = true;
                writable = false; data = Hw.Isa.assemble [ Hw.Isa.Wrmsr ] } ] }
      in
      (match
         Erebor.Monitor.boot_kernel monitor ~kernel_image:evil
           ~reserved_frames:128 ~cma_frames:64
       with
      | Error e when String.starts_with ~prefix:"kernel image rejected" e ->
          print_endline "  [PASS] kernel with sensitive instructions refused"
      | Error _ | Ok _ ->
          incr failures;
          print_endline "  [FAIL] kernel with sensitive instructions booted");
      print_endline "C2-C4: privileged-mode enforcement";
      let ops = kern.Kernel.privops in
      claim "clearing SMAP blocked" true (fun () ->
          ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap false);
      claim "writing IA32_PKRS blocked" true (fun () ->
          ops.Kernel.Privops.write_msr Hw.Msr.ia32_pkrs 0L);
      claim "stray PTE store blocked" true (fun () ->
          ops.Kernel.Privops.write_pte ~pte_addr:(Hw.Phys_mem.addr_of_pfn 9000)
            (Hw.Pte.make ~pfn:5 Hw.Pte.default_flags));
      Kernel.ensure_direct_map kern ~pfn:kern.Kernel.kernel_root;
      claim "direct write to page tables blocked" true (fun () ->
          Hw.Cpu.write_u64 cpu
            (Kernel.Layout.direct_map
               (Hw.Phys_mem.addr_of_pfn kern.Kernel.kernel_root))
            0xBADL);
      print_endline "C5: attestation exclusivity";
      claim "kernel tdreport blocked" true (fun () ->
          ignore
            (ops.Kernel.Privops.tdcall
               (Tdx.Ghci.Tdreport { report_data = Bytes.empty })));
      print_endline "C6-C8: sandbox protection";
      let sb =
        Result.get_ok
          (Erebor.Sandbox.create_sandbox mgr ~name:"probe"
             ~confined_budget:(64 * 4096))
      in
      let base =
        Result.get_ok (Erebor.Sandbox.declare_confined mgr sb ~len:(16 * 4096))
      in
      ignore
        (Result.get_ok
           (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "secret")));
      ops.Kernel.Privops.write_cr3
        ~root_pfn:(Erebor.Sandbox.main_task sb).Kernel.Task.root_pfn;
      claim "kernel read of sandbox memory blocked (SMAP)" true (fun () ->
          ignore (Hw.Cpu.read_u8 cpu base));
      claim "usercopy exfiltration blocked" true (fun () ->
          ignore (ops.Kernel.Privops.copy_from_user ~user_addr:base ~len:6));
      (match
         Erebor.Sandbox.handle_syscall mgr sb
           (Kernel.Syscall.Open { path = "/leak" })
       with
      | Kernel.Syscall.Rerr _ ->
          print_endline "  [PASS] post-data syscall killed the sandbox"
      | _ ->
          incr failures;
          print_endline "  [FAIL] post-data syscall allowed");
      (* After the battery, the monitor must still keep every invariant;
         a broken one is a failure of its own. *)
      List.iter
        (fun v ->
          incr failures;
          Fmt.pr "  [FAIL] invariant: %a@." Erebor.Invariant.pp_violation v)
        (Erebor.Invariant.check ~audit_key ~violations:!violations ~attrib monitor);
      Printf.printf "\nself-check %s (%d failure(s))\n"
        (if !failures = 0 then "PASSED" else "FAILED")
        !failures;
      if !failures > 0 then exit 1)

(* ------------------------------------------------------------------ *)
(* audit verify                                                        *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  C.group ~name:"audit" ~doc:"Inspect tamper-evident audit logs"
    [
      C.cmd ~name:"verify"
        ~doc:
          "Re-walk an audit log's HMAC chain offline; any tampered, dropped, \
           reordered or truncated record fails the check"
        (fun p ->
          let path =
            match C.pos p with
            | [ path ] -> path
            | _ -> C.fail p "exactly one FILE argument expected"
          in
          let contents =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error e ->
              Printf.eprintf "audit verify: cannot read %s (%s)\n" path e;
              exit 1
          in
          match Obs.Audit.verify_string ~key:audit_key contents with
          | Ok n ->
              Printf.printf
                "audit verify: OK — %d record(s), chain intact and finalized\n"
                n
          | Error msg ->
              Printf.eprintf "audit verify: FAILED — %s\n" msg;
              exit 1);
    ]

(* ------------------------------------------------------------------ *)
(* journal query | critical | diff | export                           *)
(* ------------------------------------------------------------------ *)

let journal_file p =
  match C.pos p with
  | [ path ] -> path
  | _ -> C.fail p "exactly one journal FILE argument expected"

let kind_of_name p s =
  match List.find_opt (fun k -> Obs.Trace.name k = s) Obs.Trace.all with
  | Some k -> k
  | None -> C.fail p (Printf.sprintf "unknown event kind %S" s)

let print_info (info : Obs.Journal.info) =
  Printf.printf "journal  : %d events in %d segments, %s, last ts %d\n"
    info.Obs.Journal.events info.Obs.Journal.segments
    (if info.Obs.Journal.complete then "finalized"
     else "NOT finalized (truncated tail)")
    info.Obs.Journal.last_ts;
  List.iter
    (fun (k, v) -> Printf.printf "  meta   %-10s %s\n" k v)
    info.Obs.Journal.meta;
  List.iter
    (fun (id, name) -> Printf.printf "  stream %-10d %s\n" id name)
    info.Obs.Journal.machines

let kind_flag =
  C.flag ~docv:"NAME" [ "--kind" ]
    "Keep only events of this kind (wire name, e.g. emc.mmu, page_fault)."

let machine_flag =
  C.flag ~docv:"NAME" [ "--machine" ] "Keep only this machine's stream."

let sandbox_flag =
  C.flag ~docv:"ID" [ "--sandbox" ]
    "Keep only events inside this sandbox's lifetime window \
     (create..exit/kill)."

let from_flag =
  C.flag ~docv:"CYCLES" [ "--from" ] "Keep events at or after this timestamp."

let to_flag =
  C.flag ~docv:"CYCLES" [ "--to" ] "Keep events at or before this timestamp."

let group_flag =
  C.flag ~docv:"BY" [ "--group" ]
    "Aggregation key: kind (default), machine, phase, none."

let query_cmd =
  C.cmd ~name:"query"
    ~doc:"Filter + group-by over a journal: counts, sums, log2 percentiles"
    ~flags:[ kind_flag; machine_flag; sandbox_flag; from_flag; to_flag; group_flag ]
    (fun p ->
      let path = journal_file p in
      let filter =
        {
          Obs.Query.kinds =
            (match C.str p kind_flag with
            | None -> []
            | Some s -> [ kind_of_name p s ]);
          machines =
            (match C.str p machine_flag with None -> [] | Some m -> [ m ]);
          sandbox =
            (match C.str p sandbox_flag with
            | None -> None
            | Some _ -> Some (C.int_of p ~min:0 ~default:0 sandbox_flag));
          t0 =
            (match C.str p from_flag with
            | None -> None
            | Some _ -> Some (C.int_of p ~min:0 ~default:0 from_flag));
          t1 =
            (match C.str p to_flag with
            | None -> None
            | Some _ -> Some (C.int_of p ~min:0 ~default:0 to_flag));
        }
      in
      let group =
        match C.str p group_flag with
        | None | Some "kind" -> Obs.Query.By_kind
        | Some "machine" -> Obs.Query.By_machine
        | Some "phase" -> Obs.Query.By_phase
        | Some "none" -> Obs.Query.By_none
        | Some g ->
            C.fail p
              (Printf.sprintf
                 "unknown group %S (expected kind, machine, phase or none)" g)
      in
      match Obs.Query.run ~filter ~group ~path () with
      | Error e ->
          Printf.eprintf "journal query: %s\n" e;
          exit 1
      | Ok (rows, info) ->
          print_info info;
          print_string (Obs.Query.render rows))

let top_flag =
  C.flag ~docv:"N" [ "--top" ] "Show the N slowest requests (default 10)."

let critical_cmd =
  C.cmd ~name:"critical"
    ~doc:
      "Reconstruct per-request windows and split latency into queueing vs \
       service with per-phase blame"
    ~flags:[ top_flag ]
    (fun p ->
      let path = journal_file p in
      let top = C.int_of p ~min:1 ~default:10 top_flag in
      match Obs.Critical.analyze ~top ~path () with
      | Error e ->
          Printf.eprintf "journal critical: %s\n" e;
          exit 1
      | Ok (report, info) ->
          print_info info;
          print_string (Obs.Critical.render report))

let threshold_flag =
  C.flag ~docv:"PCT" [ "--threshold" ]
    "Regression threshold in percent (default 5.0)."

let min_cycles_flag =
  C.flag ~docv:"N" [ "--min-cycles" ]
    "Ignore deltas smaller than N absolute cycles (default 1000)."

let diff_cmd =
  C.cmd ~name:"diff"
    ~doc:
      "Compare two journals by domain x phase attribution; exit 1 when run \
       B regresses past the threshold"
    ~flags:[ threshold_flag; min_cycles_flag ]
    (fun p ->
      let a, b =
        match C.pos p with
        | [ a; b ] -> (a, b)
        | _ -> C.fail p "exactly two journal FILE arguments expected (A B)"
      in
      let threshold = C.float_of p ~default:5.0 threshold_flag in
      let min_cycles = C.int_of p ~min:0 ~default:1000 min_cycles_flag in
      match Obs.Diff.compare_files ~a ~b with
      | Error e ->
          Printf.eprintf "journal diff: %s\n" e;
          exit 1
      | Ok d ->
          print_string (Obs.Diff.render ~threshold ~min_cycles d);
          if Obs.Diff.regressions ~threshold ~min_cycles d <> [] then exit 1)

let chrome_flag =
  C.flag ~docv:"FILE" [ "--chrome" ]
    "Regenerate a Chrome-trace JSON file from the journal alone."

let export_flame_flag =
  C.flag ~docv:"FILE" [ "--flame" ]
    "Regenerate a collapsed-stack flamegraph from the journal alone \
     (attribution replay)."

let export_cmd =
  C.cmd ~name:"export"
    ~doc:"Regenerate Chrome-trace / flamegraph exports from a journal"
    ~flags:[ chrome_flag; export_flame_flag ]
    (fun p ->
      let path = journal_file p in
      let chrome_out = output_file p chrome_flag in
      let flame_out = output_file p export_flame_flag in
      if Option.is_none chrome_out && Option.is_none flame_out then
        C.fail p "nothing to export (pass --chrome and/or --flame)";
      (* One replay: every stream feeds the live Chrome sink (streams merge
         into one timeline, virtual timestamps are shared); the flamegraph
         needs the full context tree, so with --flame the first stream also
         feeds a dedicated Attrib instance, closed by its finalizer. *)
      let chrome = Obs.Chrome.create () in
      let att = Obs.Attrib.create () in
      let first = ref (Option.is_some flame_out) in
      let stream ~machine:_ =
        let em = Obs.Emitter.create () in
        if Option.is_some chrome_out then ignore (Obs.Chrome.attach em chrome);
        if !first then begin
          first := false;
          ignore (Obs.Attrib.attach em att);
          Obs.Emitter.add_finalizer em (fun ~now -> Obs.Attrib.close att ~now)
        end;
        em
      in
      match Obs.Journal.replay ~path stream with
      | Error e ->
          Printf.eprintf "journal export: %s\n" e;
          exit 1
      | Ok _ ->
          Option.iter
            (fun (out, oc) ->
              output_string oc (Obs.Chrome.to_chrome_json chrome);
              close_out oc;
              Printf.printf "chrome   : %d events -> %s\n"
                (Obs.Chrome.length chrome) out)
            chrome_out;
          Option.iter
            (fun (out, oc) ->
              output_string oc (Obs.Flame.collapsed att);
              close_out oc;
              Printf.printf "flame    : collapsed stacks -> %s\n" out)
            flame_out)

let journal_cmd =
  C.group ~name:"journal"
    ~doc:"Analyze flight-recorder journals written by run --record"
    [ query_cmd; critical_cmd; diff_cmd; export_cmd ]

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  C.run ~prog:"erebor-sim"
    ~doc:"Run the paper's workloads on the simulated Erebor CVM"
    [
      run_cmd; profile_cmd; compare_cmd; list_cmd; selfcheck_cmd; audit_cmd;
      journal_cmd;
    ]
