module passv2/benchmark

go 1.24

require passv2 v0.0.0

replace passv2 => ../
