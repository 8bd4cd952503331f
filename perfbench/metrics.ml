(* Timing, allocation and summary helpers, and the result line. *)

(* Seconds on the monotonic clock, nanosecond resolution. *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now"
[@@noalloc]

(* Words allocated by the calling domain so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type 'a timed = { value : 'a; ms : float; words : float }

let timed f =
  let w0 = alloc_words () in
  let t0 = now () in
  let value = f () in
  let t1 = now () in
  { value; ms = (t1 -. t0) *. 1000.; words = alloc_words () -. w0 }

let ms_since t0 = (now () -. t0) *. 1000.

(* ---- machine-speed calibration ----

   The machines this runs on share their cores with other tenants, and a
   fixed CPU loop's speed swings by up to half in phases that last from
   seconds to minutes, longer than a run.  So every end-to-end time is
   taken between two passes of a fixed calibration kernel and scaled by
   [reference_ms /. kernel_ms]: it reads as milliseconds on a machine where
   one pass of the kernel takes [reference_ms].  The kernel uses the
   standard library only, so no change to cqanull moves it. *)

let reference_ms = 10.

(* Hashing, boxed allocation and a sort, like the measured code. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let x = ref 12345 and acc = ref [] in
  for i = 0 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0x7fff in
    (match Hashtbl.find_opt h k with
    | Some v -> Hashtbl.replace h k (v + i)
    | None -> Hashtbl.add h k i);
    if i land 7 = 0 then acc := (k, i) :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  Hashtbl.length h + fst a.(0)

(* Milliseconds per kernel pass, the mean of [reps] passes, on a collected
   heap before and after so that neither side is charged the other's
   garbage. *)
let calibrate reps =
  Gc.full_major ();
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  let ms = ms_since t0 /. float_of_int reps in
  Gc.full_major ();
  ms

type 'a sample = {
  result : 'a;
  raw_ms : float;
  kernel_ms : float;
  scaled_ms : float;
}

(* Runs [f] until [stop n] holds after [n] runs, each run between two
   calibrations of [reps] passes; [scaled_ms] is its time scaled by the
   mean of the two. *)
let calibrated ~reps ~stop f =
  let rec go k n acc =
    if stop n then List.rev acc
    else
      let r = timed f in
      let k' = calibrate reps in
      let kernel_ms = (k +. k') /. 2. in
      let s =
        { result = r.value; raw_ms = r.ms; kernel_ms;
          scaled_ms = r.ms *. reference_ms /. kernel_ms }
      in
      go k' (n + 1) (s :: acc)
  in
  go (calibrate reps) 0 []

(* Median of a sample (mean of the two middle values on an even count). *)
let median xs =
  match Array.of_list (List.sort compare xs) with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      if n mod 2 = 0 then (a.((n / 2) - 1) +. a.(n / 2)) /. 2. else a.(n / 2)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* A metric sink in emission order. *)
type sink = (string * float * string) list ref

let create () : sink = ref []
let add (s : sink) name unit value = s := (name, value, unit) :: !s
let count s name n = add s name "count" (float_of_int n)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line: exactly the keys correct, attempted, failed, metrics. *)
let print_result ~correct ~attempted ~failed (s : sink) =
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      !s
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " metrics)
