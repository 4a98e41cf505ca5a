(* Tests for the Gramine-like LibOS running inside Erebor sandboxes. *)

module M = Sim.Machine

let make_libos ?(heap_bytes = 64 * 4096) ?(threads = 4) ?(preload = []) mgr =
  let sb =
    Result.get_ok
      (Erebor.Sandbox.create_sandbox mgr ~name:"libos-sb" ~confined_budget:(256 * 4096))
  in
  (sb, Result.get_ok (Libos.boot ~mgr ~sb ~heap_bytes ~threads ~preload))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_alloc_free () =
  let h = Libos.Heap.create ~base:0x1000 ~len:4096 in
  let a = Option.get (Libos.Heap.alloc h 100) in
  let b = Option.get (Libos.Heap.alloc h 200) in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check int) "used" (112 + 208) (Libos.Heap.used_bytes h);
  Libos.Heap.free h a;
  Libos.Heap.free h b;
  Alcotest.(check int) "all free" 0 (Libos.Heap.used_bytes h);
  (* Coalescing: the full arena is allocatable again. *)
  Alcotest.(check bool) "coalesced" true (Libos.Heap.alloc h 4096 <> None)

let test_heap_exhaustion_and_double_free () =
  let h = Libos.Heap.create ~base:0 ~len:256 in
  let a = Option.get (Libos.Heap.alloc h 128) in
  Alcotest.(check (option int)) "exhausted" None (Libos.Heap.alloc h 200);
  Libos.Heap.free h a;
  Alcotest.check_raises "double free" (Invalid_argument "Heap.free: unknown or double-freed block")
    (fun () -> Libos.Heap.free h a)

let prop_heap_no_overlap =
  QCheck.Test.make ~name:"heap allocations never overlap" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let h = Libos.Heap.create ~base:0 ~len:(1 lsl 16) in
      let blocks = List.filter_map (fun n -> Option.map (fun a -> (a, n)) (Libos.Heap.alloc h n)) sizes in
      let rec disjoint = function
        | [] -> true
        | (a, n) :: rest ->
            List.for_all (fun (b, m) -> a + n <= b || b + m <= a) rest && disjoint rest
      in
      disjoint blocks)

(* ------------------------------------------------------------------ *)
(* Spinlock                                                            *)
(* ------------------------------------------------------------------ *)

let test_spinlock () =
  let clock = Hw.Cycles.clock () in
  let l = Libos.Spinlock.create ~clock in
  Libos.Spinlock.with_lock l (fun () -> ());
  Alcotest.(check int) "one acquisition" 1 (Libos.Spinlock.acquisitions l);
  Alcotest.(check int) "uncontended" 0 (Libos.Spinlock.contended l);
  let t0 = Hw.Cycles.now clock in
  Libos.Spinlock.acquire l;
  Alcotest.(check int) "uncontended cost" Hw.Cycles.Cost.spinlock_acquire
    (Hw.Cycles.now clock - t0);
  (* Second acquire while held: contended, costs more. *)
  let t1 = Hw.Cycles.now clock in
  Libos.Spinlock.acquire l;
  Alcotest.(check bool) "contended costs more" true
    (Hw.Cycles.now clock - t1 > Hw.Cycles.Cost.spinlock_acquire);
  Alcotest.(check int) "contention counted" 1 (Libos.Spinlock.contended l);
  Libos.Spinlock.release l;
  Alcotest.check_raises "release unheld" (Invalid_argument "Spinlock.release: not held")
    (fun () -> Libos.Spinlock.release l)

(* ------------------------------------------------------------------ *)
(* Memfs + LibOS boot                                                  *)
(* ------------------------------------------------------------------ *)

let test_libos_boot_preload () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let sb, libos =
    make_libos mgr ~preload:[ ("/lib/libc.so", Bytes.of_string "libc bytes");
                              ("/app/config", Bytes.of_string "cfg") ]
  in
  Alcotest.(check int) "threads pre-created" 4 (Libos.thread_count libos);
  Alcotest.(check int) "worker tasks exist" 3 (List.length (Erebor.Sandbox.threads sb));
  Alcotest.(check (list string)) "preloaded files" [ "/app/config"; "/lib/libc.so" ]
    (Libos.Memfs.list (Libos.fs libos));
  (match Libos.read_file libos "/lib/libc.so" with
  | Ok b -> Alcotest.(check string) "content" "libc bytes" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  ignore kern

let test_memfs_contents_in_confined_memory () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let sb, libos = make_libos mgr in
  (match Libos.write_file libos "/tmp/scratch" (Bytes.of_string "CONFINED-DATA") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The payload physically lives in a CMA (confined) frame. *)
  let task = Erebor.Sandbox.main_task sb in
  let heap_page = Kernel.Layout.page_align_down (Libos.heap_base libos) in
  let pfn = Option.get (Kernel.resolve_pfn kern task ~addr:heap_page) in
  Alcotest.(check bool) "file bytes in CMA frames" true
    (Kernel.Alloc.is_allocated kern.Kernel.cma pfn)

let test_memfs_lifecycle () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) in
  let _, libos = make_libos mgr in
  let fs = Libos.fs libos in
  (match Libos.Memfs.write_file fs "/a" (Bytes.of_string "one") with Ok () -> () | Error e -> Alcotest.fail e);
  (match Libos.Memfs.append_file fs "/a" (Bytes.of_string "+two") with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "append" (Some "one+two")
    (Option.map Bytes.to_string (Libos.Memfs.read_file fs "/a"));
  (* Rewriting a large file with a small one frees the old block. *)
  (match Libos.Memfs.write_file fs "/a" (Bytes.make 512 'y') with Ok () -> () | Error e -> Alcotest.fail e);
  let used_before = Libos.Heap.used_bytes (Libos.heap libos) in
  (match Libos.Memfs.write_file fs "/a" (Bytes.of_string "x") with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "old payload freed" true
    (Libos.Heap.used_bytes (Libos.heap libos) < used_before);
  Alcotest.(check bool) "removed" true (Libos.Memfs.remove fs "/a");
  Alcotest.(check bool) "gone" false (Libos.Memfs.exists fs "/a");
  (* Empty files are fine. *)
  (match Libos.Memfs.write_file fs "/empty" Bytes.empty with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "empty size" (Some 0) (Libos.Memfs.file_size fs "/empty")

let test_memfs_heap_exhaustion () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) in
  let _, libos = make_libos mgr ~heap_bytes:(4 * 4096) in
  match Libos.write_file libos "/big" (Bytes.make (5 * 4096) 'x') with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized file accepted"

(* ------------------------------------------------------------------ *)
(* Runtime services after sealing                                      *)
(* ------------------------------------------------------------------ *)

let test_io_channel_after_seal () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) in
  let sb, libos = make_libos mgr in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "prompt: hi")));
  (match Libos.recv_input libos with
  | Ok b -> Alcotest.(check string) "input via ioctl" "prompt: hi" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  (match Libos.send_output libos (Bytes.of_string "answer") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "output shepherded" "answer"
    (Bytes.to_string (Erebor.Sandbox.take_output mgr sb));
  Alcotest.(check bool) "sandbox alive" true (Erebor.Sandbox.kill_reason sb = None)

let test_services_stay_inside_after_seal () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let sb, libos = make_libos mgr in
  ignore (Result.get_ok (Erebor.Sandbox.load_client_data mgr sb (Bytes.of_string "data")));
  let syscalls_before = kern.Kernel.stats.Kernel.syscalls in
  (* Heap, files, locks — all in-process; no kernel syscalls, no kill. *)
  let addr = Result.get_ok (Libos.malloc libos 4096) in
  Libos.store libos ~addr (Bytes.of_string "tmp");
  (match Libos.write_file libos "/tmp/t" (Bytes.of_string "temp file") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Libos.with_lock libos (fun () -> ());
  Libos.free libos addr;
  Alcotest.(check int) "no kernel syscalls" syscalls_before kern.Kernel.stats.Kernel.syscalls;
  Alcotest.(check bool) "not killed" true (Erebor.Sandbox.kill_reason sb = None)

let test_parallel_compute_scaling () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let _, libos = make_libos mgr ~threads:8 in
  let t0 = Hw.Cycles.now kern.Kernel.clock in
  Libos.parallel_compute libos ~total_cycles:8_000_000 ~sync_ops:0;
  Alcotest.(check int) "8 threads split the work" 1_000_000 (Hw.Cycles.now kern.Kernel.clock - t0);
  let t1 = Hw.Cycles.now kern.Kernel.clock in
  Libos.parallel_compute libos ~total_cycles:0 ~sync_ops:10;
  Alcotest.(check bool) "sync adds cost" true (Hw.Cycles.now kern.Kernel.clock - t1 > 0)

let test_service_cost_accounting () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let _, libos = make_libos mgr in
  let n0 = Libos.service_calls libos in
  let t0 = Hw.Cycles.now kern.Kernel.clock in
  ignore (Libos.malloc libos 64);
  Alcotest.(check int) "counted" (n0 + 1) (Libos.service_calls libos);
  Alcotest.(check int) "libos service cost" Hw.Cycles.Cost.libos_service
    (Hw.Cycles.now kern.Kernel.clock - t0)

(* ------------------------------------------------------------------ *)
(* POSIX surface                                                       *)
(* ------------------------------------------------------------------ *)

let make_posix () =
  let st = M.create ~frames:32768 ~cma_frames:8192 ~setting:Sim.Config.Erebor_full () in
  let mgr = Option.get (M.manager st) and kern = M.kern st in
  let sb, libos = make_libos mgr in
  ignore sb;
  ignore kern;
  (libos, Libos.Posix.attach libos)

let get = function Ok v -> v | Error e -> Alcotest.failf "errno %s" (Libos.Posix.errno_to_string e)

let test_posix_open_read_write () =
  let _, d = make_posix () in
  let fd = get (Libos.Posix.openf d "/tmp/f" [ Libos.Posix.O_CREAT; Libos.Posix.O_RDWR ]) in
  Alcotest.(check int) "write" 5 (get (Libos.Posix.write d fd (Bytes.of_string "hello")));
  Alcotest.(check int) "append write" 6 (get (Libos.Posix.write d fd (Bytes.of_string " world")));
  ignore (get (Libos.Posix.lseek d fd 0 Libos.Posix.SEEK_SET));
  Alcotest.(check string) "read back" "hello world"
    (Bytes.to_string (get (Libos.Posix.read d fd 64)));
  Alcotest.(check string) "eof" "" (Bytes.to_string (get (Libos.Posix.read d fd 64)));
  get (Libos.Posix.close d fd);
  (match Libos.Posix.read d fd 1 with
  | Error Libos.Posix.EBADF -> ()
  | _ -> Alcotest.fail "read after close");
  Alcotest.(check int) "no leaked fds" 0 (Libos.Posix.open_fds d)

let test_posix_flags () =
  let _, d = make_posix () in
  (match Libos.Posix.openf d "/absent" [ Libos.Posix.O_RDONLY ] with
  | Error Libos.Posix.ENOENT -> ()
  | _ -> Alcotest.fail "open absent");
  let fd = get (Libos.Posix.openf d "/f" [ Libos.Posix.O_CREAT ]) in
  get (Libos.Posix.close d fd);
  (match Libos.Posix.openf d "/f" [ Libos.Posix.O_CREAT; Libos.Posix.O_EXCL ] with
  | Error Libos.Posix.EEXIST -> ()
  | _ -> Alcotest.fail "excl on existing");
  (* O_TRUNC clears. *)
  let fd = get (Libos.Posix.openf d "/f" [ Libos.Posix.O_RDWR ]) in
  ignore (get (Libos.Posix.write d fd (Bytes.of_string "content")));
  get (Libos.Posix.close d fd);
  let fd = get (Libos.Posix.openf d "/f" [ Libos.Posix.O_RDWR; Libos.Posix.O_TRUNC ]) in
  Alcotest.(check int) "truncated" 0 (get (Libos.Posix.stat_size d "/f"));
  get (Libos.Posix.close d fd);
  (* Read-only write fails. *)
  let fd = get (Libos.Posix.openf d "/f" [ Libos.Posix.O_RDONLY ]) in
  match Libos.Posix.write d fd (Bytes.of_string "x") with
  | Error Libos.Posix.EACCES -> ()
  | _ -> Alcotest.fail "write to rdonly"

let test_posix_seek_sparse () =
  let _, d = make_posix () in
  let fd = get (Libos.Posix.openf d "/s" [ Libos.Posix.O_CREAT; Libos.Posix.O_RDWR ]) in
  ignore (get (Libos.Posix.lseek d fd 10 Libos.Posix.SEEK_SET));
  ignore (get (Libos.Posix.write d fd (Bytes.of_string "x")));
  Alcotest.(check int) "sparse size" 11 (get (Libos.Posix.stat_size d "/s"));
  ignore (get (Libos.Posix.lseek d fd 0 Libos.Posix.SEEK_SET));
  let data = get (Libos.Posix.read d fd 11) in
  Alcotest.(check char) "hole is zero" '\000' (Bytes.get data 0);
  Alcotest.(check char) "written byte" 'x' (Bytes.get data 10);
  (match Libos.Posix.lseek d fd (-99) Libos.Posix.SEEK_CUR with
  | Error Libos.Posix.EINVAL -> ()
  | _ -> Alcotest.fail "negative seek")

let test_posix_append_rename_unlink () =
  let _, d = make_posix () in
  let fd = get (Libos.Posix.openf d "/log" [ Libos.Posix.O_CREAT; Libos.Posix.O_APPEND ]) in
  ignore (get (Libos.Posix.write d fd (Bytes.of_string "a")));
  ignore (get (Libos.Posix.lseek d fd 0 Libos.Posix.SEEK_SET));
  ignore (get (Libos.Posix.write d fd (Bytes.of_string "b")));
  Alcotest.(check int) "append ignores pos" 2 (get (Libos.Posix.stat_size d "/log"));
  get (Libos.Posix.rename d "/log" "/archive");
  (match Libos.Posix.stat_size d "/log" with
  | Error Libos.Posix.ENOENT -> ()
  | _ -> Alcotest.fail "old name survives rename");
  Alcotest.(check int) "renamed" 2 (get (Libos.Posix.stat_size d "/archive"));
  get (Libos.Posix.unlink d "/archive");
  match Libos.Posix.unlink d "/archive" with
  | Error Libos.Posix.ENOENT -> ()
  | _ -> Alcotest.fail "double unlink"

let test_posix_dup () =
  let _, d = make_posix () in
  let fd = get (Libos.Posix.openf d "/d" [ Libos.Posix.O_CREAT; Libos.Posix.O_RDWR ]) in
  ignore (get (Libos.Posix.write d fd (Bytes.of_string "abcdef")));
  ignore (get (Libos.Posix.lseek d fd 2 Libos.Posix.SEEK_SET));
  let fd2 = get (Libos.Posix.dup d fd) in
  Alcotest.(check string) "dup inherits offset" "cd"
    (Bytes.to_string (get (Libos.Posix.read d fd2 2)));
  (* Independent offsets afterwards. *)
  Alcotest.(check string) "original offset unmoved" "cdef"
    (Bytes.to_string (get (Libos.Posix.read d fd 4)))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "libos"
    [
      ( "heap",
        [
          Alcotest.test_case "alloc/free" `Quick test_heap_alloc_free;
          Alcotest.test_case "exhaustion/double free" `Quick test_heap_exhaustion_and_double_free;
          qt prop_heap_no_overlap;
        ] );
      ("spinlock", [ Alcotest.test_case "semantics" `Quick test_spinlock ]);
      ( "memfs",
        [
          Alcotest.test_case "boot preload" `Quick test_libos_boot_preload;
          Alcotest.test_case "contents confined" `Quick test_memfs_contents_in_confined_memory;
          Alcotest.test_case "lifecycle" `Quick test_memfs_lifecycle;
          Alcotest.test_case "heap exhaustion" `Quick test_memfs_heap_exhaustion;
        ] );
      ( "posix",
        [
          Alcotest.test_case "open/read/write" `Quick test_posix_open_read_write;
          Alcotest.test_case "flags" `Quick test_posix_flags;
          Alcotest.test_case "seek/sparse" `Quick test_posix_seek_sparse;
          Alcotest.test_case "append/rename/unlink" `Quick test_posix_append_rename_unlink;
          Alcotest.test_case "dup" `Quick test_posix_dup;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "io channel" `Quick test_io_channel_after_seal;
          Alcotest.test_case "in-process services" `Quick test_services_stay_inside_after_seal;
          Alcotest.test_case "parallel compute" `Quick test_parallel_compute_scaling;
          Alcotest.test_case "service cost" `Quick test_service_cost_accounting;
        ] );
    ]
