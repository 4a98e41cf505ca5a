module Image = struct
  type t = { width : int; height : int; pixels : int array }

  let get img x y = img.pixels.((y * img.width) + x)

  let synthetic ~rng ~width ~height ~blobs =
    let pixels = Array.make (width * height) 10 in
    let img = { width; height; pixels } in
    for _ = 1 to blobs do
      let cx = Crypto.Drbg.int rng width and cy = Crypto.Drbg.int rng height in
      let r = 2 + Crypto.Drbg.int rng (max 2 (min width height / 8)) in
      for y = max 0 (cy - r) to min (height - 1) (cy + r) do
        for x = max 0 (cx - r) to min (width - 1) (cx + r) do
          let dx = x - cx and dy = y - cy in
          if (dx * dx) + (dy * dy) <= r * r then pixels.((y * width) + x) <- 220
        done
      done
    done;
    img

  let sobel img =
    let { width; height; _ } = img in
    let out = Array.make (width * height) 0 in
    for y = 1 to height - 2 do
      for x = 1 to width - 2 do
        let p dx dy = get img (x + dx) (y + dy) in
        let gx =
          p 1 (-1) + (2 * p 1 0) + p 1 1 - p (-1) (-1) - (2 * p (-1) 0) - p (-1) 1
        in
        let gy =
          p (-1) 1 + (2 * p 0 1) + p 1 1 - p (-1) (-1) - (2 * p 0 (-1)) - p 1 (-1)
        in
        out.((y * width) + x) <- min 255 (abs gx + abs gy)
      done
    done;
    { img with pixels = out }

  let threshold img ~level =
    { img with pixels = Array.map (fun v -> if v >= level then 1 else 0) img.pixels }

  let segments img =
    let { width; height; pixels } = img in
    let seen = Array.make (width * height) false in
    let count = ref 0 in
    let stack = Stack.create () in
    for start = 0 to (width * height) - 1 do
      if pixels.(start) <> 0 && not seen.(start) then begin
        incr count;
        Stack.push start stack;
        seen.(start) <- true;
        while not (Stack.is_empty stack) do
          let i = Stack.pop stack in
          let x = i mod width and y = i / width in
          List.iter
            (fun (nx, ny) ->
              if nx >= 0 && nx < width && ny >= 0 && ny < height then begin
                let j = (ny * width) + nx in
                if pixels.(j) <> 0 && not seen.(j) then begin
                  seen.(j) <- true;
                  Stack.push j stack
                end
              end)
            [ (x + 1, y); (x - 1, y); (x, y + 1); (x, y - 1) ]
        done
      end
    done;
    !count
end

(* Full pipeline: synthesize, edge-detect, binarize, count segments. *)
let segment_count ~rng ~width ~height ~blobs =
  Image.segments
    (Image.threshold (Image.sobel (Image.synthetic ~rng ~width ~height ~blobs)) ~level:100)

let profile =
  {
    Workload.name = "yolo";
    nominal_seconds = 19.60;
    nominal_confined_mb = 757;
    common = Some ("yolov5", 132);
    threads = 8;
    timer_hz = 1000;
    pf_per_sec = 1200.0;
    hostio_per_sec = 1300.0;
    hostio_bytes = 32768;
    pte_churn_per_sec = 50_000.0;
    sync_per_sec = 12_000.0;
    contention = 0.4;
    service_per_sec = 3_000.0;
    init_cycles_per_page = 8_300;
    output_bucket = 4096;
  }

let real_work (ops : Sim.Machine.ops) =
  let _request = ops.Sim.Machine.recv_input () in
  (* 100 input images in the paper's workload; segment a sample for real. *)
  let results =
    List.init 8 (fun i ->
        let n = segment_count ~rng:ops.Sim.Machine.rng ~width:96 ~height:96 ~blobs:(3 + i) in
        Printf.sprintf "image-%d: %d segments" i n)
  in
  ops.Sim.Machine.send_output (Bytes.of_string (String.concat "\n" results))

let spec () =
  Workload.to_spec profile ~input:(Bytes.of_string "segment batch of 100 images") ~real_work
