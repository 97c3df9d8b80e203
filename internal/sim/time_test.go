package sim

import "testing"

func TestFormatTime(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		2500:            "2.50us",
		3 * Millisecond: "3.00ms",
		12 * Second:     "12.000s",
	}
	for in, want := range cases {
		if got := FormatTime(in); got != want {
			t.Fatalf("FormatTime(%d)=%q want %q", in, got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Micros(2.89) != 2890 {
		t.Fatal("Micros")
	}
	if ToMicros(2890) != 2.89 {
		t.Fatal("ToMicros")
	}
	if ToSeconds(Second) != 1 {
		t.Fatal("ToSeconds")
	}
}
