(* Order statistics and fits over measured samples. An empty sample reads
   0: the layer or request class did not occur in this workload. *)

let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      (* Linear interpolation between closest ranks. *)
      let h = q *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(** Least-squares slope of [log y] against [log x]; points with a
    non-positive coordinate are dropped, and fewer than two points read 0. *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  if n < 2. then 0.
  else
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    let den = (n *. sxx) -. (sx *. sx) in
    if den = 0. then 0. else ((n *. sxy) -. (sx *. sy)) /. den

(** Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.
        (String.split_on_char '\n' text)
