module distme/benchmark

go 1.24

require distme v0.0.0

replace distme => ../
