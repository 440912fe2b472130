type 'a t = {
  form : string;  (* what a well-formed text looks like *)
  rule : string;  (* the form with its range *)
  read : string -> 'a option;  (* the form only *)
  valid : 'a -> bool;
  print : 'a -> string;
}

let of_string t s =
  Option.bind (t.read s) (fun v -> if t.valid v then Some v else None)

let to_string t v = t.print v
let expected t s = if Option.is_none (t.read s) then t.form else t.rule

let float_repr f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let enum form names =
  let print v = fst (List.find (fun (_, w) -> w = v) names) in
  let read s = List.assoc_opt s names in
  { form; rule = form; read; valid = (fun _ -> true); print }

let engine =
  enum "mfsa, mfs or list"
    [ ("mfsa", Flow.Mfsa); ("mfs", Flow.Mfs); ("list", Flow.List_sched) ]

let library =
  enum "default, two-cycle or pipelined"
    [ ("default", Problem.Default); ("two-cycle", Problem.Two_cycle);
      ("pipelined", Problem.Pipelined) ]

let styles = [ Core.Mfsa.Unrestricted; Core.Mfsa.No_self_loop ]
let style = enum "1 or 2" (List.combine [ "1"; "2" ] styles)

let weights =
  let parts (w : Core.Mfsa.weights) = [ w.w_time; w.w_alu; w.w_mux; w.w_reg ] in
  {
    form = "T/ALU/MUX/REG";
    rule = "T/ALU/MUX/REG, each >= 0";
    read =
      (fun s ->
        match List.map float_of_string_opt (String.split_on_char '/' s) with
        | [ Some w_time; Some w_alu; Some w_mux; Some w_reg ] ->
            Some { Core.Mfsa.w_time; w_alu; w_mux; w_reg }
        | _ -> None);
    valid = (fun w -> List.for_all (fun v -> v >= 0.) (parts w));
    print = (fun w -> String.concat "/" (List.map float_repr (parts w)));
  }

let integer rule valid =
  let rule = "an integer " ^ rule in
  { form = "an integer"; rule; read = int_of_string_opt; valid;
    print = string_of_int }

let budget = integer ">= 0 (0 = the critical path)" (fun n -> n >= 0)
let latency = integer ">= 1" (fun n -> n >= 1)
let ports = integer ">= 1" (fun n -> n >= 1)

let clock =
  { form = "a number"; rule = "a finite number > 0"; read = float_of_string_opt;
    valid = (fun c -> Float.is_finite c && c > 0.); print = float_repr }

(* The class is everything before the last '=', so the comparison classes
   "<=", ">=" and "=" can be capped too. *)
let cap =
  {
    form = "CLASS=COUNT";
    rule = "CLASS=COUNT with a non-empty class and a count >= 1";
    read =
      (fun s ->
        Option.bind (String.rindex_opt s '=') (fun i ->
            let count = String.sub s (i + 1) (String.length s - i - 1) in
            Option.map
              (fun k -> (String.trim (String.sub s 0 i), k))
              (int_of_string_opt (String.trim count))));
    valid = (fun (c, k) -> c <> "" && k >= 1);
    print = (fun (c, k) -> Printf.sprintf "%s=%d" c k);
  }

let caps =
  {
    form = "CLASS=COUNT[,CLASS=COUNT...]";
    rule =
      "CLASS=COUNT[,CLASS=COUNT...] with non-empty classes and counts >= 1";
    read =
      (fun s ->
        let parts = List.map cap.read (String.split_on_char ',' s) in
        if List.mem None parts then None
        else Some (List.filter_map Fun.id parts));
    valid = (fun l -> l <> [] && List.for_all cap.valid l);
    print = (fun l -> String.concat "," (List.map cap.print l));
  }

let constraint_name = function
  | Flow.Time cs -> Printf.sprintf "T=%d" cs
  | Flow.Resource limits ->
      "R{" ^ caps.print (List.sort compare limits) ^ "}"
