let fold f acc text =
  let len = String.length text in
  let rec go acc n i =
    if i >= len then acc
    else
      match String.index_from_opt text i '\n' with
      | None -> f acc n (Error "truncated final line (no newline)")
      | Some j ->
        let line =
          if j = i then Error "empty line" else Ok (String.sub text i (j - i))
        in
        go (f acc n line) (n + 1) (j + 1)
  in
  go acc 1 0
