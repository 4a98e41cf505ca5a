type event = { src : string; action : string; dst : string }

let benign_templates =
  [| ("bash", "exec", "ls"); ("sshd", "fork", "bash"); ("nginx", "read", "/var/www/index");
     ("postgres", "write", "/var/lib/pg/wal"); ("cron", "exec", "backup.sh");
     ("systemd", "open", "/etc/hosts"); ("nginx", "accept", "socket:80");
     ("bash", "read", "/home/user/.bashrc") |]

let anomaly_templates =
  [| ("nginx", "exec", "/tmp/dropper"); ("dropper", "connect", "socket:6667");
     ("dropper", "read", "/etc/shadow"); ("dropper", "write", "socket:exfil") |]

let synthetic_log ~rng ~events ~anomaly_rate =
  List.init events (fun _ ->
      let src, action, dst =
        if Crypto.Drbg.float rng < anomaly_rate then
          anomaly_templates.(Crypto.Drbg.int rng (Array.length anomaly_templates))
        else benign_templates.(Crypto.Drbg.int rng (Array.length benign_templates))
      in
      { src; action; dst })

module Sketch = struct
  type t = { bins : float array; mutable count : int }

  let create ~width =
    if width <= 0 then invalid_arg "Sketch.create: width must be positive";
    { bins = Array.make width 0.0; count = 0 }

  let hash s =
    let h = ref 5381 in
    String.iter (fun c -> h := (!h * 33) + Char.code c) s;
    !h land max_int

  let add t { src; action; dst } =
    let width = Array.length t.bins in
    let key = src ^ "|" ^ action ^ "|" ^ dst in
    t.bins.(hash key mod width) <- t.bins.(hash key mod width) +. 1.0;
    t.count <- t.count + 1

  let cosine a b =
    if Array.length a.bins <> Array.length b.bins then
      invalid_arg "Sketch.cosine: width mismatch";
    let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
    Array.iteri
      (fun i va ->
        let vb = b.bins.(i) in
        dot := !dot +. (va *. vb);
        na := !na +. (va *. va);
        nb := !nb +. (vb *. vb))
      a.bins;
    if !na = 0.0 || !nb = 0.0 then 0.0 else !dot /. (sqrt !na *. sqrt !nb)

  let count t = t.count
end

let sketch_of_log log =
  let s = Sketch.create ~width:1024 in
  List.iter (Sketch.add s) log;
  s

let score ~baseline log = 1.0 -. Sketch.cosine baseline (sketch_of_log log)

let baseline ~rng = sketch_of_log (synthetic_log ~rng ~events:20000 ~anomaly_rate:0.0)

let profile =
  {
    Workload.name = "unicorn";
    nominal_seconds = 38.94;
    nominal_confined_mb = 1254;
    common = None;
    threads = 8;
    timer_hz = 2300;
    pf_per_sec = 700.0;
    hostio_per_sec = 900.0;
    hostio_bytes = 4096;
    pte_churn_per_sec = 35_000.0;
    sync_per_sec = 11_000.0;
    contention = 0.35;
    service_per_sec = 3_000.0;
    init_cycles_per_page = 2_410;
    output_bucket = 4096;
  }

let real_work (ops : Sim.Machine.ops) =
  let _request = ops.Sim.Machine.recv_input () in
  let rng = ops.Sim.Machine.rng in
  let base = baseline ~rng in
  let clean = synthetic_log ~rng ~events:5000 ~anomaly_rate:0.0 in
  let attacked = synthetic_log ~rng ~events:5000 ~anomaly_rate:0.15 in
  (* Each score builds a 5000-event sketch: compute it once for both the
     report and the verdict. *)
  let benign = score ~baseline:base clean in
  let suspect = score ~baseline:base attacked in
  let report =
    Printf.sprintf "benign score: %.4f\nsuspect score: %.4f\nverdict: %s" benign
      suspect
      (if suspect > 2.0 *. benign then "ANOMALY DETECTED" else "inconclusive")
  in
  ops.Sim.Machine.send_output (Bytes.of_string report)

let spec () =
  Workload.to_spec profile ~input:(Bytes.of_string "analyze 20MB parsed log") ~real_work
