(* Shared helpers for the benchmark processes: the wall clock, exact
   percentiles, peak RSS and a JSON line writer.

   Every wall-clock read in the benchmark goes through [Mutps_native.Clock],
   the repository's one R1-allowed clock site. *)

module Clock = Mutps_native.Clock

let now_ns = Clock.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Nearest-rank percentile of the first [n] samples of [a] (left unsorted). *)
let percentile (a : int array) ~n p =
  if n = 0 then 0
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The host-speed probe.  On a shared VM the speed of a process's memory
   system varies from process to process (placement, the neighbours' use
   of the shared last-level cache) by more than the benchmark's bounds.
   The probe samples it: a dependent chain of loads through one random
   cycle over a 16 MiB array, timed in ns per load.  It runs only code of
   the benchmark's own, so a change to the program leaves it alone; the
   sim workloads time it between the slices of their window (README.md). *)
let probe_words = 1 lsl 21
let probe_mb = float_of_int (probe_words * (Sys.word_size / 8)) /. 1048576.0
let probe_steps = 200_000

let probe_make () =
  let rng = Mutps_sim.Rng.create 42 in
  let a = Array.init probe_words Fun.id in
  (* Sattolo's shuffle: one cycle through every slot *)
  for i = probe_words - 1 downto 1 do
    let j = Mutps_sim.Rng.int rng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let probe_ns (a : int array) =
  let t0 = now_ns () in
  let i = ref 0 in
  for _ = 1 to probe_steps do
    i := Array.unsafe_get a !i
  done;
  ignore (Sys.opaque_identity !i);
  float_of_int (now_ns () - t0) /. float_of_int probe_steps

(* One JSON object per process: numbers, strings, arrays of numbers and
   nested objects.  Floats print with 17 significant digits. *)
type v = I of int | F of float | S of string | A of float array | O of (string * v) list

let rec to_buf b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | A a ->
    Buffer.add_char b '[';
    Array.iteri
      (fun i f ->
        if i > 0 then Buffer.add_string b ", ";
        to_buf b (F f))
      a;
    Buffer.add_char b ']'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "%S: " k);
        to_buf b v)
      kvs;
    Buffer.add_char b '}'

let print_json fields =
  let b = Buffer.create 4096 in
  to_buf b (O fields);
  print_endline (Buffer.contents b)
