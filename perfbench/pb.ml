(* Instruments shared by every workload: a monotonic clock, order
   statistics, GC and memory probes, digests and JSON output. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Seconds elapsed since [t0] (a [now_ns] reading). *)
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A percentile is reported only when at least this many samples lie
   beyond it; with fewer, the tail is too thin to mean anything. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (0 < p < 100) of [samples]. *)
let percentile p samples =
  if not (p > 0.0 && p < 100.0) then
    invalid_arg "Pb.percentile: p must lie strictly between 0 and 100";
  let n = Array.length samples in
  (* p *. n first: exact for integral p, so p99 of 2000 is rank 1980 *)
  let rank = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))) in
  let beyond = n - rank in
  if beyond < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n
         (max 0 beyond) min_beyond)
  else Ok (sorted samples).(rank - 1)

(* Hit ratio of a structure; 0 when it was never looked up. *)
let ratio hits misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

type gc = { minor_words : float; major_collections : int }

let gc_now () =
  {
    minor_words = Gc.minor_words ();
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb *. 1024.0 /. 1e6)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      find ())

let md5 s = Digest.to_hex (Digest.string s)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All the digits a double carries: a measured time must never print as a
   rounded constant. *)
let json_float x = Printf.sprintf "%.17g" x

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"
