module Vtbl = Hashtbl.Make (Value)

let mutex = Mutex.create ()
let table : int Vtbl.t = Vtbl.create 4096

(* id -> value, published via [Atomic] so decoding never takes the lock:
   a slot is written before [count] is bumped, and both the array and the
   counter are sequentially-consistent atomics, so any reader that observes
   [i < count] also observes the write to slot [i]. *)
let values : Value.t array Atomic.t = Atomic.make (Array.make 1024 Value.Null)
let count = Atomic.make 0
let null_id = 0

let () =
  Vtbl.replace table Value.Null null_id;
  Atomic.set count 1

let size () = Atomic.get count
let is_null i = i = null_id

let value i =
  if i < 0 || i >= Atomic.get count then invalid_arg "Symtab.value: unknown code";
  (Atomic.get values).(i)

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Without [locked]'s closure: joins look up their seeds' codes per seed. *)
let find v =
  Mutex.lock mutex;
  let code = Vtbl.find_opt table v in
  Mutex.unlock mutex;
  code

let intern_unlocked v =
  match Vtbl.find_opt table v with
  | Some i -> i
  | None ->
      let n = Atomic.get count in
      let arr = Atomic.get values in
      let arr =
        if n >= Array.length arr then begin
          let bigger = Array.make (2 * Array.length arr) Value.Null in
          Array.blit arr 0 bigger 0 n;
          bigger
        end
        else arr
      in
      arr.(n) <- v;
      Atomic.set values arr;
      Vtbl.replace table v n;
      Atomic.incr count;
      n

let intern v = locked (fun () -> intern_unlocked v)
let intern_all vs = locked (fun () -> Array.map intern_unlocked vs)
