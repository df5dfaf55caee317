package experiments

// Table 3 of the paper: hyperparameters for the DNN training experiments,
// kept as data so tests and documentation stay in sync with the configs
// the runners actually use (at reduced scale; see README's reproduction map).
type Table3Row struct {
	Name            string
	Model           string
	GlobalBatchSize int
	Epochs          int
	// TopK selection: K entries out of every Bucket.
	K, Bucket int
	// QuantBits is the QSGD precision (0 = no quantization).
	QuantBits int
}

// Table3 mirrors the paper's Table 3 plus the selection parameters quoted
// in §8.3/§8.4.
var Table3 = []Table3Row{
	{Name: "CIFAR-10", Model: "ResNet-110", GlobalBatchSize: 256, Epochs: 160, K: 8, Bucket: 512, QuantBits: 4},
	{Name: "ImageNet-1K", Model: "4xResNet 18 and 34", GlobalBatchSize: 512, Epochs: 70, K: 1, Bucket: 512},
	{Name: "ATIS", Model: "LSTM", GlobalBatchSize: 560, Epochs: 20, K: 2, Bucket: 512},
	{Name: "Hansards", Model: "LSTM", GlobalBatchSize: 256, Epochs: 20, K: 4, Bucket: 512},
	{Name: "ASR (proprietary)", Model: "LSTM", GlobalBatchSize: 512, Epochs: 20, K: 4, Bucket: 512},
}

// Table3For returns the row for a dataset name, or false.
func Table3For(name string) (Table3Row, bool) {
	for _, r := range Table3 {
		if r.Name == name {
			return r, true
		}
	}
	return Table3Row{}, false
}
